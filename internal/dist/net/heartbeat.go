package net

import (
	"context"
	"sync"
	"time"
)

// Monitor is the heartbeat-based failure detector: the owner calls Touch on
// every frame received from a peer (heartbeats included) and compares
// Silence with its lease. Pure bookkeeping — the owner decides what death
// means (respawn a rank, abort a minority partition).
type Monitor struct {
	mu   sync.Mutex
	last map[int]time.Time
}

// NewMonitor returns a Monitor tracking no peers.
func NewMonitor() *Monitor {
	return &Monitor{last: make(map[int]time.Time)}
}

// Touch records life from peer id.
func (m *Monitor) Touch(id int) {
	now := time.Now()
	m.mu.Lock()
	m.last[id] = now
	m.mu.Unlock()
}

// Forget stops tracking peer id (it left cleanly or was replaced).
func (m *Monitor) Forget(id int) {
	m.mu.Lock()
	delete(m.last, id)
	m.mu.Unlock()
}

// Silence reports how long peer id has been quiet; ok is false for an
// untracked peer.
func (m *Monitor) Silence(id int, now time.Time) (time.Duration, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.last[id]
	if !ok {
		return 0, false
	}
	return now.Sub(t), true
}

// Heartbeat sends empty frames of type typ on c every interval until ctx is
// done or a send fails. It runs on the caller's goroutine choice; typical
// use is
//
//	go net.Heartbeat(ctx, conn, fHB, interval)
//
// and the ctx cancellation (or closing the conn) is the join signal.
func Heartbeat(ctx context.Context, c *Conn, typ byte, interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := c.Send(typ, nil); err != nil {
				return // connection gone; nothing left to keep alive
			}
		}
	}
}
