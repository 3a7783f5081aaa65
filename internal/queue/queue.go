// Package queue implements the Graph500 omp-csr-style concurrent frontier
// queue the paper adopts (§IV-A): a preallocated global array written by
// atomic block reservation, fed by small per-worker local buffers sized to
// stay in the local cache. A worker appends to its private buffer and, when
// the buffer fills, reserves a contiguous region of the global array with a
// single fetch-and-add and copies the buffer out. This keeps contention to
// one atomic per LocalCap insertions. Sweeps whose output order matters
// fill a Frontier in index order instead (see Local.Out).
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

// Local is a per-worker staging buffer bound to a Frontier. It also keeps
// the worker's runs of an ordered fill (see Out).
type Local struct {
	dst *Frontier
	buf [LocalCap]int32
	n   int
	// runs[k] is the worker's run in the k-th list of an ordered fill; two,
	// because the widest fill sorts one sweep into two lists.
	runs [2]run
	// Pad the struct to a whole number of cache lines (4144 B of fields +
	// 16 B = 65 lines) so adjacent Locals in the per-worker slice never
	// split a line: the hot n/tail words of worker w and the dst/head of
	// worker w+1 would otherwise ping-pong one line between cores.
	_ [16]byte
}

// run is a worker's contiguous entries buf[lo : lo+n] of a Frontier being
// filled in order.
type run struct{ lo, n int }

// NewLocals returns p Locals all flushing into dst.
func NewLocals(p int, dst *Frontier) []Local {
	ls := make([]Local, p)
	for i := range ls {
		ls[i].dst = dst
	}
	return ls
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

// Out returns the space for the entries of the worker's block [lo, hi) in
// f, the k-th list of an ordered fill: f's storage from the end of the
// worker's run on, up to hi. An empty run (re)starts at lo, so a run always
// lies inside its worker's slice.
//
// An ordered fill lists entries in index order at any worker count, in one
// pass over the input and with no atomics. It takes a statically scheduled
// region over [0, n) whose worker ids are its slice order, as in par's
// static regions, in which every index yields at most one entry per list,
// and up to two Frontiers of capacity ≥ n. Each worker writes its entries
// straight into a frontier's storage from the first index of its slice on,
// so its run never reaches the next worker's slice; after the join, Gather
// closes the gaps with one copy per worker. Worker w's block [lo, hi) of a
// fill into f, its k-th list, runs
//
//	out := ls[w].Out(k, f, lo, hi)
//	j := 0
//	for i := lo; i < hi; i++ { if hit(i) { out[j] = v(i); j++ } }
//	ls[w].Wrote(k, j)
//
// and the caller ends the fill with f.Gather(ls, k) after the join, whether
// or not the region completed.
func (l *Local) Out(k int, f *Frontier, lo, hi int) []int32 {
	r := &l.runs[k]
	if r.n == 0 {
		r.lo = lo
	}
	return f.buf[r.lo+r.n : hi]
}

// Wrote extends the worker's run in the k-th list by the j entries it wrote
// at the start of the space Out returned.
func (l *Local) Wrote(k, j int) { l.runs[k].n += j }

// Gather ends an ordered fill of f, the k-th list of ls's runs: it moves the
// runs, in worker order, to the front of f's storage, sets f's length to
// their total and empties the runs.
func (f *Frontier) Gather(ls []Local, k int) {
	n := 0
	for i := range ls {
		r := &ls[i].runs[k]
		if r.lo != n { // a lone worker's run is usually in place already
			copy(f.buf[n:], f.buf[r.lo:r.lo+r.n])
		}
		n += r.n
		*r = run{}
	}
	f.n.Store(int64(n))
}
