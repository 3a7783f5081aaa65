// Package par provides the shared-memory parallel primitives used by every
// parallel matching algorithm in this repository: a blocked parallel-for with
// static or dynamic scheduling, run on fresh goroutines or on a shared Pool,
// and padded per-worker counters that avoid false sharing (the pure-Go
// stand-in for the paper's NUMA-aware, thread-pinned OpenMP runtime).
package par

import "runtime"

// DefaultWorkers returns the worker count used when an Options.Threads is
// zero: GOMAXPROCS at call time.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// clampWorkers normalizes a requested worker count.
func clampWorkers(p int) int {
	if p <= 0 {
		return DefaultWorkers()
	}
	return p
}

// For runs body over [0, n) split into p contiguous, near-equal blocks, one
// body call per worker with its id and half-open range: static scheduling for
// the level-synchronous steps whose per-element work is small and uniform.
// It is the nil-pool region of (*Pool).ForCtx without cancellation or
// sub-blocking. A worker panic is contained — the other workers drain and
// skip what they have not started — and re-raised in the caller's goroutine
// as a *PanicError.
func For(p int, n int, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if clampWorkers(p) == 1 || n == 1 {
		body(0, 0, n)
		return
	}
	// A grain of n gives each worker its whole block as one body call.
	if err := (*Pool)(nil).static(nil, p, n, n, body); err != nil {
		panic(err)
	}
}

// ForDynamic runs body over [0, n) with dynamic chunk self-scheduling:
// workers repeatedly claim the next grain-sized block from a shared cursor,
// for per-element cost that is skewed (e.g. power-law degrees). It is the
// nil-pool (*Pool).ForDynamicCtx without cancellation; panics re-raise as
// in For.
func ForDynamic(p int, n int, grain int, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if clampWorkers(p) == 1 {
		body(0, 0, n)
		return
	}
	if err := (*Pool)(nil).ForDynamicCtx(nil, p, n, grain, body); err != nil {
		panic(err)
	}
}

// cacheLine is the assumed cache line size for padding.
const cacheLine = 64

// Counter is a set of per-worker int64 cells padded to separate cache lines.
// Hot loops increment their own cell without synchronization; Sum is called
// after the parallel section (synchronized by the region's fork/join).
type Counter struct {
	cells []paddedInt64
}

type paddedInt64 struct {
	v int64
	_ [cacheLine - 8]byte
}

// NewCounter returns a Counter with p cells.
func NewCounter(p int) *Counter {
	return &Counter{cells: make([]paddedInt64, clampWorkers(p))}
}

// Add adds delta to worker w's cell. Not atomic: each worker must only
// touch its own cell inside a parallel region.
func (c *Counter) Add(w int, delta int64) { c.cells[w].v += delta }

// Sum returns the total across workers. Call only outside parallel regions.
func (c *Counter) Sum() int64 {
	var s int64
	for i := range c.cells {
		s += c.cells[i].v
	}
	return s
}

// Reset zeroes all cells.
func (c *Counter) Reset() {
	for i := range c.cells {
		c.cells[i].v = 0
	}
}
