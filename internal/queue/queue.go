// Package queue implements the Graph500 omp-csr-style concurrent frontier
// queue the paper adopts (§IV-A): a preallocated global array written by
// atomic block reservation, fed by small per-worker local buffers sized to
// stay in the local cache. A worker appends to its private buffer and, when
// the buffer fills, reserves a contiguous region of the global array with a
// single fetch-and-add and copies the buffer out. This keeps contention to
// one atomic per LocalCap insertions.
package queue

import (
	"sync/atomic"

	"graftmatch/internal/obs"
)

// LocalCap is the per-worker buffer capacity. 1024 int32s = 4 KiB, small
// enough for L1 residency, large enough to amortize the atomic reservation.
const LocalCap = 1024

// Frontier is a bounded multi-producer vertex queue. Capacity must be an
// upper bound on the total number of pushes between Resets (the algorithms
// bound it by the vertex count: each vertex enters a frontier at most once
// per phase).
type Frontier struct {
	buf []int32
	n   atomic.Int64

	// resv, when set via Instrument, counts atomic block reservations — the
	// queue's one contended operation, and the quantity that tells an
	// operator whether LocalCap is amortizing contention as designed. A nil
	// counter (the default) costs one predictable branch per reservation.
	resv *obs.Counter
}

// NewFrontier returns a Frontier with the given capacity.
func NewFrontier(capacity int) *Frontier {
	return &Frontier{buf: make([]int32, capacity)}
}

// Instrument attaches a reservation counter (nil detaches). Every worker
// adds to the one counter: reservations happen once per LocalCap pushes,
// far off the per-vertex hot path.
func (f *Frontier) Instrument(c *obs.Counter) { f.resv = c }

// Reset empties the queue without releasing storage.
func (f *Frontier) Reset() { f.n.Store(0) }

// Len returns the number of enqueued vertices.
func (f *Frontier) Len() int { return int(f.n.Load()) }

// Slice returns the enqueued vertices. Valid only after all producers have
// flushed and synchronized (fork/join barrier).
func (f *Frontier) Slice() []int32 { return f.buf[:f.n.Load()] }

// PushBlock reserves space for and copies in a block of vertices. It is the
// flush path of Local and may also be used directly for bulk appends.
func (f *Frontier) PushBlock(vs []int32) {
	if len(vs) == 0 {
		return
	}
	end := f.n.Add(int64(len(vs)))
	start := end - int64(len(vs))
	if f.resv != nil {
		f.resv.Add(1)
	}
	if end > int64(len(f.buf)) {
		// Capacity is a caller-proved bound (≤ one frontier entry per
		// vertex per phase); exceeding it is memory-corrupting, so fail
		// fast even on the hot path.
		panic("queue: frontier capacity exceeded") //lint:ignore err-checked capacity assertion guards memory safety on the lock-free hot path
	}
	copy(f.buf[start:end], vs)
}

// Push enqueues one vertex with a single atomic reservation. Prefer Local
// buffers in hot loops.
func (f *Frontier) Push(v int32) {
	i := f.n.Add(1) - 1
	if f.resv != nil {
		f.resv.Add(1)
	}
	if i >= int64(len(f.buf)) {
		panic("queue: frontier capacity exceeded") //lint:ignore err-checked capacity assertion guards memory safety on the lock-free hot path
	}
	f.buf[i] = v
}

// Swap exchanges the storage of two frontiers (current/next double
// buffering) without copying.
func (f *Frontier) Swap(o *Frontier) {
	f.buf, o.buf = o.buf, f.buf
	n := f.n.Load()
	f.n.Store(o.n.Load())
	o.n.Store(n)
}

// Local is a per-worker staging buffer bound to a Frontier.
type Local struct {
	dst *Frontier
	buf [LocalCap]int32
	n   int
	// Pad the struct to a whole number of cache lines (4112 B of fields +
	// 48 B = 65 lines) so adjacent Locals in the per-worker slice never
	// split a line: the hot n/tail words of worker w and the dst/head of
	// worker w+1 would otherwise ping-pong one line between cores.
	_ [48]byte
}

// NewLocals returns p Locals all flushing into dst.
func NewLocals(p int, dst *Frontier) []Local {
	ls := make([]Local, p)
	for i := range ls {
		ls[i].dst = dst
	}
	return ls
}

// Rebind points the local buffer at a (possibly different) destination
// frontier; the buffer must be empty.
func (l *Local) Rebind(dst *Frontier) {
	if l.n != 0 {
		panic("queue: Rebind with buffered entries") //lint:ignore err-checked misuse assertion: rebinding a non-empty buffer silently drops vertices
	}
	l.dst = dst
}

// Push appends v to the local buffer, flushing to the global frontier when
// full.
func (l *Local) Push(v int32) {
	if l.n == LocalCap {
		l.dst.PushBlock(l.buf[:l.n])
		l.n = 0
	}
	l.buf[l.n] = v
	l.n++
}

// Flush drains any buffered vertices to the global frontier. Every worker
// must Flush before the join barrier.
func (l *Local) Flush() {
	if l.n > 0 {
		l.dst.PushBlock(l.buf[:l.n])
		l.n = 0
	}
}
