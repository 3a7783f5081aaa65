package net

import (
	"math/rand"
	"sync"
	"time"
)

// Backoff is a jittered, capped exponential backoff schedule: the nth delay
// is drawn uniformly from [d/2, d] where d = min(Base<<(n-1), Max). The
// half-window jitter decorrelates peers that fail together (every rank
// dialing a coordinator that is still coming up at once), while the cap
// keeps the join latency bounded. The zero value is usable.
type Backoff struct {
	Base time.Duration // first delay; 0 means 20ms
	Max  time.Duration // delay cap; 0 means 2s
	Seed int64         // jitter source seed; 0 seeds from the clock

	mu      sync.Mutex
	rng     *rand.Rand
	attempt int
}

func (b *Backoff) base() time.Duration {
	if b.Base > 0 {
		return b.Base
	}
	return 20 * time.Millisecond
}

func (b *Backoff) max() time.Duration {
	if b.Max > 0 {
		return b.Max
	}
	return 2 * time.Second
}

// Next returns the next delay in the schedule and advances it.
func (b *Backoff) Next() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.rng == nil {
		seed := b.Seed
		if seed == 0 {
			seed = time.Now().UnixNano()
		}
		b.rng = rand.New(rand.NewSource(seed))
	}
	d := b.base()
	for i := 0; i < b.attempt && d < b.max(); i++ {
		d *= 2
	}
	if d > b.max() {
		d = b.max()
	}
	b.attempt++
	half := d / 2
	return half + time.Duration(b.rng.Int63n(int64(half)+1))
}
