package par

import (
	"context"
	"sync"
	"sync/atomic"
)

// Pool runs parallel regions on a fixed set of resident worker goroutines.
// Regions submitted by concurrent callers interleave on the same workers, so
// a process serving many simultaneous runs keeps its total compute
// parallelism at the pool size instead of multiplying it per request.
//
// A nil *Pool is valid and spawns instead: each slice of a region runs on
// its own goroutine while the caller waits — the right default for a single
// run that owns the machine. Either way body gets a region-local worker id in
// [0, pp), calls for one id are sequential, blocks are never interrupted, and
// the result is nil, the context's error, or a *PanicError.
//
// Deadlock freedom: a region never *requires* a pool worker. The caller runs
// one slice of every region inline; a slice that cannot be enqueued (pool
// saturated or closed) runs inline too; and once the caller finishes its own
// slice it steals back every slice no worker has started (pool and caller
// race for each slice with a CAS and exactly one side runs it). A region
// therefore only waits on slices actively executing on a resident worker, so
// overload degrades toward serial execution on the submitter and a closed or
// wedged pool still completes every region. This relies on slices being
// independent: a slice never waits for a sibling.
type Pool struct {
	workers int
	tasks   chan *poolTask
	stop    chan struct{} // closed by Close after the closed flag is set
	wg      sync.WaitGroup

	mu     sync.RWMutex // guards closed against concurrent submit/Close
	closed bool

	// queued counts tasks handed to the pool and not yet started; it lets
	// callers observe backlog (e.g. for admission decisions).
	queued atomic.Int64
}

// NewPool starts a pool of `workers` resident workers (0 means
// DefaultWorkers). Close it when done.
func NewPool(workers int) *Pool {
	workers = clampWorkers(workers)
	p := &Pool{
		workers: workers,
		// The buffer absorbs a burst of region slices without blocking
		// submitters; beyond it, slices run inline on their caller.
		tasks: make(chan *poolTask, 4*workers),
		stop:  make(chan struct{}),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		select {
		case t := <-p.tasks:
			p.queued.Add(-1)
			t.exec()
		case <-p.stop:
			// Drain tasks enqueued before Close flipped the flag; no new
			// sends can arrive (submit checks closed under the lock).
			for {
				select {
				case t := <-p.tasks:
					p.queued.Add(-1)
					t.exec()
				default:
					return
				}
			}
		}
	}
}

// Workers returns the pool's resident worker count.
func (p *Pool) Workers() int { return p.workers }

// Backlog returns the number of submitted slices not yet started — a cheap
// saturation signal for admission controllers.
func (p *Pool) Backlog() int { return int(p.queued.Load()) }

// Close stops the resident workers after the tasks already submitted have
// run. Regions submitted after Close still complete, executed inline on
// their callers. Close is idempotent and safe to call concurrently with
// submissions.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.stop)
	p.mu.Unlock()
	p.wg.Wait()
}

// ForCtx runs body over [0, n) split into pp contiguous, near-equal slices
// (static scheduling), one per worker id, each executed in blocks of at most
// ctxGrain iterations. Workers poll ctx between blocks and stop claiming new
// blocks once it expires or a sibling panics; any invariant that holds at
// body boundaries holds when ForCtx returns. A nil ctx is never cancelled.
func (p *Pool) ForCtx(ctx context.Context, pp, n int, body func(worker, lo, hi int)) error {
	return p.static(ctx, pp, n, ctxGrain, body)
}

// static is ForCtx with the block size as a parameter: For passes n, so each
// slice is a single body call.
func (p *Pool) static(ctx context.Context, pp, n, grain int, body func(worker, lo, hi int)) error {
	if n <= 0 {
		return nil
	}
	pp = min(clampWorkers(pp), n)
	if pp == 1 {
		return serial(ctx, n, grain, body)
	}
	r := &region{ctx: ctx, body: body, n: n, slices: pp, grain: grain}
	p.run(r, (*region).staticSlice)
	return r.err()
}

// ForDynamicCtx runs body over [0, n) with dynamic chunk self-scheduling:
// pp workers repeatedly claim the next grain-sized block from a shared
// cursor. Use it when per-element cost is skewed (e.g. scanning vertices
// with power-law degrees). The gate is checked before every claim, and an
// in-flight block always completes, as in ForCtx.
func (p *Pool) ForDynamicCtx(ctx context.Context, pp, n, grain int, body func(worker, lo, hi int)) error {
	if n <= 0 {
		return nil
	}
	grain = max(grain, 1)
	if pp = clampWorkers(pp); pp == 1 {
		return serial(ctx, n, grain, body)
	}
	r := &region{ctx: ctx, body: body, n: n, slices: pp, grain: grain}
	p.run(r, (*region).dynamicSlice)
	return r.err()
}

// serial runs a one-worker region on the caller's goroutine, with the same
// blocking, cancellation and panic containment as a parallel one and no
// heap allocation of its own.
func serial(ctx context.Context, n, grain int, body func(worker, lo, hi int)) error {
	r := region{ctx: ctx, body: body, grain: grain}
	r.blocks(0, 0, n)
	return r.err()
}

// staticSlice runs slice w of a static region: the w-th of r.slices
// contiguous blocks, the first n%slices of them one element longer.
func (r *region) staticSlice(w int) {
	chunk, rem := r.n/r.slices, r.n%r.slices
	lo := w*chunk + min(w, rem)
	hi := lo + chunk
	if w < rem {
		hi++
	}
	r.blocks(w, lo, hi)
}

// dynamicSlice runs slice w of a dynamic region: it claims grain-sized
// blocks from the shared cursor until the range is exhausted or the gate
// stops the region.
func (r *region) dynamicSlice(w int) {
	defer r.guard()
	grain, n := int64(r.grain), int64(r.n)
	for !r.stopped() {
		lo := r.cursor.Add(grain) - grain
		if lo >= n {
			return
		}
		r.body(w, int(lo), int(min(lo+grain, n)))
	}
}

// run executes every slice of r and returns once all have finished: on
// fresh goroutines for a nil pool, else caller-runs plus steal-back (see
// Pool).
func (p *Pool) run(r *region, slice func(*region, int)) {
	if p == nil {
		r.wg.Add(r.slices)
		for w := 0; w < r.slices; w++ {
			go func(w int) {
				defer r.wg.Done()
				slice(r, w)
			}(w)
		}
		r.wg.Wait()
		return
	}
	submitted := make([]*poolTask, 0, r.slices-1)
	for w := 0; w < r.slices-1; w++ {
		t := &poolTask{r: r, slice: slice, w: w}
		r.wg.Add(1)
		if p.submit(t) {
			submitted = append(submitted, t)
		} else {
			t.exec() // saturated or closed: degrade to inline execution
		}
	}
	slice(r, r.slices-1)
	for _, t := range submitted {
		t.exec()
	}
	r.wg.Wait()
}

// poolTask is one region slice handed to the pool; the claim flag decides
// whether a resident worker or the stealing caller runs it.
type poolTask struct {
	claimed atomic.Bool
	r       *region
	slice   func(*region, int)
	w       int
}

// exec runs the task's slice if this call wins the claim.
func (t *poolTask) exec() {
	if t.claimed.CompareAndSwap(false, true) {
		defer t.r.wg.Done()
		t.slice(t.r, t.w)
	}
}

// submit hands t to a resident worker, or reports false when the caller must
// run it inline (pool saturated or closed). Never blocks.
func (p *Pool) submit(t *poolTask) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return false
	}
	select {
	case p.tasks <- t:
		p.queued.Add(1)
		return true
	default:
		return false
	}
}
