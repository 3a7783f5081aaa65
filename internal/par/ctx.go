package par

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError wraps a panic recovered from a worker of a parallel region. The
// region's remaining workers are drained and the first panic is surfaced to
// the caller — as the error of (*Pool).ForCtx/ForDynamicCtx, or re-panicked
// in the caller's goroutine by For/ForDynamic — instead of crashing the
// process from an unrecoverable goroutine or hanging the region's join.
type PanicError struct {
	Value any    // the recovered panic value
	Stack []byte // stack of the panicking worker, captured at recovery
}

func (e *PanicError) Error() string { return fmt.Sprintf("par: worker panic: %v", e.Value) }

// ctxGrain is the iteration granularity at which statically scheduled
// context-aware regions poll for cancellation: large enough that the
// per-block atomic load is invisible next to the block's work, small enough
// that cancellation latency stays in the microsecond range.
const ctxGrain = 4096

// region is the state one parallel region shares across its slices: the
// body and its range, the claim cursor of a dynamic region, and the
// early-stop gate — a worker panic or an observed expiry of ctx sets stop,
// and workers cease claiming blocks at the next check. A nil ctx is never
// cancelled. The gate is lock-free, so a one-worker region stays on its
// caller's stack.
type region struct {
	ctx    context.Context
	body   func(worker, lo, hi int)
	n      int
	slices int
	grain  int
	cursor atomic.Int64 // next unclaimed index of a dynamic region
	wg     sync.WaitGroup

	stop     atomic.Bool
	panicked atomic.Bool // claims perr for the first panicking worker
	perr     *PanicError // read only after the join
}

// stopped reports whether workers must stop claiming blocks.
func (r *region) stopped() bool {
	if r.stop.Load() {
		return true
	}
	if r.ctx == nil {
		return false
	}
	select {
	case <-r.ctx.Done():
		r.stop.Store(true)
		return true
	default:
		return false
	}
}

// guard recovers a worker panic into the region; call via defer at slice
// entry.
func (r *region) guard() {
	if v := recover(); v != nil {
		if r.panicked.CompareAndSwap(false, true) {
			r.perr = &PanicError{Value: v, Stack: debug.Stack()}
		}
		r.stop.Store(true)
	}
}

// err returns the region's outcome after the join: a worker panic takes
// precedence over cancellation, a stop without a panic was an observed
// cancellation, and nil means the region ran to completion.
func (r *region) err() error {
	if r.perr != nil {
		return r.perr
	}
	if r.stop.Load() {
		return r.ctx.Err()
	}
	return nil
}

// blocks runs the body for worker w over [lo, hi) in blocks of at most
// r.grain iterations, checking the gate between blocks and containing panics.
func (r *region) blocks(w, lo, hi int) {
	defer r.guard()
	for s := lo; s < hi; s += r.grain {
		if r.stopped() {
			return
		}
		r.body(w, s, min(s+r.grain, hi))
	}
}
