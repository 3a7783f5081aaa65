package par

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// eachPool runs f as a subtest against both region schedulers: the nil pool,
// which spawns a goroutine per slice, and a 2-worker resident pool, which
// runs one slice on the caller and steals back unstarted ones.
func eachPool(t *testing.T, f func(t *testing.T, pool *Pool)) {
	t.Run("nil", func(t *testing.T) { f(t, nil) })
	t.Run("pool2", func(t *testing.T) {
		pool := NewPool(2)
		defer pool.Close()
		f(t, pool)
	})
}

func TestForCtxCoversRangeExactlyOnce(t *testing.T) {
	eachPool(t, func(t *testing.T, pool *Pool) {
		for _, p := range []int{1, 2, 3, 8, 100} {
			for _, n := range []int{0, 1, 2, 7, 100, 4097, 10000} {
				seen := make([]int32, n)
				if err := pool.ForCtx(context.Background(), p, n, func(w, lo, hi int) {
					if w < 0 || w >= p {
						t.Errorf("worker id %d outside [0,%d)", w, p)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&seen[i], 1)
					}
				}); err != nil {
					t.Fatalf("p=%d n=%d: %v", p, n, err)
				}
				for i, c := range seen {
					if c != 1 {
						t.Fatalf("p=%d n=%d: index %d covered %d times", p, n, i, c)
					}
				}
			}
		}
	})
}

func TestForDynamicCtxCoversRangeExactlyOnce(t *testing.T) {
	eachPool(t, func(t *testing.T, pool *Pool) {
		for _, p := range []int{1, 2, 3, 4, 16} {
			for _, grain := range []int{0, 1, 3, 16, 64, 1000} {
				n := 777
				seen := make([]int32, n)
				if err := pool.ForDynamicCtx(context.Background(), p, n, grain, func(w, lo, hi int) {
					if w < 0 || w >= p {
						t.Errorf("worker id %d outside [0,%d)", w, p)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&seen[i], 1)
					}
				}); err != nil {
					t.Fatalf("p=%d grain=%d: %v", p, grain, err)
				}
				for i, c := range seen {
					if c != 1 {
						t.Fatalf("p=%d grain=%d: index %d covered %d times", p, grain, i, c)
					}
				}
			}
		}
	})
}

func TestForCtxPreCancelled(t *testing.T) {
	eachPool(t, func(t *testing.T, pool *Pool) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var ran atomic.Int32
		body := func(_, lo, hi int) { ran.Add(int32(hi - lo)) }
		for _, p := range []int{1, 4} {
			if err := pool.ForCtx(ctx, p, 100000, body); !errors.Is(err, context.Canceled) {
				t.Fatalf("p=%d: ForCtx error = %v, want context.Canceled", p, err)
			}
			if err := pool.ForDynamicCtx(ctx, p, 100000, 64, body); !errors.Is(err, context.Canceled) {
				t.Fatalf("p=%d: ForDynamicCtx error = %v, want context.Canceled", p, err)
			}
		}
		if ran.Load() != 0 {
			t.Fatalf("%d iterations ran under a pre-cancelled context", ran.Load())
		}
	})
}

// TestForCtxCancelStopsAtBlockBoundary: a cancellation raised inside a block
// stops the same worker from claiming its next block, so strictly less than
// the full range runs. The first block always completes (blocks are never
// interrupted mid-body).
func TestForCtxCancelStopsAtBlockBoundary(t *testing.T) {
	eachPool(t, func(t *testing.T, pool *Pool) {
		for _, p := range []int{1, 2, 4} {
			n := 10 * ctxGrain
			ctx, cancel := context.WithCancel(context.Background())
			var covered atomic.Int64
			err := pool.ForCtx(ctx, p, n, func(_, lo, hi int) {
				if lo == 0 {
					cancel() // the worker owning block 0 cancels mid-region
				}
				covered.Add(int64(hi - lo))
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("p=%d: error = %v, want context.Canceled", p, err)
			}
			// The cancelling worker owns at least two blocks and must skip the
			// later ones; workers never abandon an in-flight block.
			if c := covered.Load(); c == 0 || c >= int64(n) {
				t.Fatalf("p=%d: covered %d of %d, want partial coverage", p, c, n)
			}
			cancel()
		}
	})
}

// TestForDynamicCtxCancelStopsClaims: once the block-0 worker cancels, no
// worker claims another block. Every other block waits for the cancellation,
// so a descheduled block-0 worker cannot let its siblings drain the range
// first; at most one block per worker runs.
func TestForDynamicCtxCancelStopsClaims(t *testing.T) {
	eachPool(t, func(t *testing.T, pool *Pool) {
		for _, p := range []int{1, 2, 4} {
			n, grain := 1<<16, 64
			ctx, cancel := context.WithCancel(context.Background())
			var covered atomic.Int64
			err := pool.ForDynamicCtx(ctx, p, n, grain, func(_, lo, hi int) {
				if lo == 0 {
					cancel()
				} else {
					<-ctx.Done()
				}
				covered.Add(int64(hi - lo))
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("p=%d: error = %v, want context.Canceled", p, err)
			}
			if c := covered.Load(); c == 0 || c > int64(p*grain) {
				t.Fatalf("p=%d: covered %d of %d, want 1..%d", p, c, n, p*grain)
			}
			cancel()
		}
	})
}

// TestForCtxPanicContainment: one worker of a region panics; the region must
// drain (no deadlock, no crash) and surface a *PanicError, and the scheduler
// must still run the next region.
func TestForCtxPanicContainment(t *testing.T) {
	eachPool(t, func(t *testing.T, pool *Pool) {
		for _, p := range []int{1, 2, 8} {
			n := 4 * ctxGrain
			err := pool.ForCtx(context.Background(), p, n, func(_, lo, hi int) {
				if lo <= ctxGrain && ctxGrain < hi || lo == ctxGrain {
					panic("boom")
				}
			})
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("p=%d: error = %v, want *PanicError", p, err)
			}
			if pe.Value != "boom" {
				t.Fatalf("p=%d: panic value = %v", p, pe.Value)
			}
			if len(pe.Stack) == 0 {
				t.Fatalf("p=%d: panic stack not captured", p)
			}
			if !strings.Contains(pe.Error(), "boom") {
				t.Fatalf("p=%d: error text %q does not name the panic", p, pe.Error())
			}
			if err := pool.ForCtx(context.Background(), p, 100, func(_, _, _ int) {}); err != nil {
				t.Fatalf("p=%d: scheduler broken after a contained panic: %v", p, err)
			}
		}
	})
}

func TestForDynamicCtxPanicContainment(t *testing.T) {
	eachPool(t, func(t *testing.T, pool *Pool) {
		for _, p := range []int{1, 2, 8} {
			err := pool.ForDynamicCtx(context.Background(), p, 4096, 16, func(_, lo, _ int) {
				if lo == 256 {
					panic(errors.New("kaput"))
				}
			})
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("p=%d: error = %v, want *PanicError", p, err)
			}
		}
	})
}

// TestPanicWinsOverCancellation: when a region both observes cancellation
// and suffers a panic, the panic (the more informative failure) is reported.
func TestPanicWinsOverCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	err := (*Pool)(nil).ForDynamicCtx(ctx, 4, 1<<14, 16, func(_, lo, _ int) {
		if lo == 0 {
			cancel()
			panic("boom")
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error = %v, want *PanicError", err)
	}
	cancel()
}

// TestForRepanicsInCaller: the non-ctx variants contain worker panics and
// re-raise them in the caller's goroutine as a *PanicError — the join must
// complete first (no deadlock, no leaked workers).
func TestForRepanicsInCaller(t *testing.T) {
	check := func(name string, f func()) {
		defer func() {
			v := recover()
			if v == nil {
				t.Fatalf("%s: expected re-panic", name)
			}
			pe, ok := v.(*PanicError)
			if !ok {
				t.Fatalf("%s: panic value %T, want *PanicError", name, v)
			}
			if pe.Value != "boom" {
				t.Fatalf("%s: wrapped value = %v", name, pe.Value)
			}
		}()
		f()
	}
	check("For", func() {
		For(4, 1000, func(_, lo, _ int) {
			if lo == 0 {
				panic("boom")
			}
		})
	})
	check("ForDynamic", func() {
		ForDynamic(4, 1000, 8, func(_, lo, _ int) {
			if lo == 0 {
				panic("boom")
			}
		})
	})
}

func TestForCtxNilContext(t *testing.T) {
	var sum atomic.Int64
	if err := (*Pool)(nil).ForCtx(nil, 3, 100, func(_, lo, hi int) { //nolint:staticcheck // nil means never cancelled by contract
		for i := lo; i < hi; i++ {
			sum.Add(int64(i))
		}
	}); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 4950 {
		t.Fatalf("sum = %d", sum.Load())
	}
}
