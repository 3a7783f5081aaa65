// Package pos holds aliased-lock positives.
package pos

import "sync"

type counter struct {
	mu sync.Mutex
	n  int
}

// Alias double-lock: m and p.mu are the same mutex under two names.
func AliasDouble(p *counter) {
	m := &p.mu
	p.mu.Lock()
	m.Lock()
	m.Unlock()
	p.mu.Unlock()
}

func use() {
	c := &counter{}
	AliasDouble(c)
}
