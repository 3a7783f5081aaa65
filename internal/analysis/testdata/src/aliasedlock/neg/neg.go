// Package neg holds aliased-lock negatives: an alias locked once and
// distinct mutexes locked together.
package neg

import "sync"

type counter struct {
	mu sync.Mutex
	n  int
}

// An alias locked exactly once is fine; so are two distinct mutexes.
type pair struct {
	a, b sync.Mutex
}

func Alias(p *counter) {
	m := &p.mu
	m.Lock()
	m.Unlock()
}

func TwoLocks(p *pair) {
	p.a.Lock()
	p.b.Lock()
	p.b.Unlock()
	p.a.Unlock()
}

func use() {
	c := &counter{}
	Alias(c)
	TwoLocks(&pair{})
}
