package par

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolSharedAcrossConcurrentRegions drives many regions through one pool
// at once — the serving workload — and checks each region's integrity.
func TestPoolSharedAcrossConcurrentRegions(t *testing.T) {
	pool := NewPool(3)
	defer pool.Close()
	const regions = 16
	var wg sync.WaitGroup
	errs := make([]error, regions)
	for r := 0; r < regions; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 500 + 37*r
			var sum atomic.Int64
			errs[r] = pool.ForCtx(context.Background(), 4, n, func(w, lo, hi int) {
				for i := lo; i < hi; i++ {
					sum.Add(int64(i))
				}
			})
			want := int64(n) * int64(n-1) / 2
			if got := sum.Load(); got != want {
				t.Errorf("region %d: sum %d, want %d", r, got, want)
			}
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("region %d: %v", r, err)
		}
	}
}

// TestPoolClosedRunsInline checks regions submitted after Close still
// complete (inline on the caller), preserving the drain contract: work
// admitted during shutdown finishes instead of hanging.
func TestPoolClosedRunsInline(t *testing.T) {
	pool := NewPool(2)
	pool.Close()
	var sum atomic.Int64
	err := pool.ForCtx(context.Background(), 4, 1000, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			sum.Add(1)
		}
	})
	if err != nil || sum.Load() != 1000 {
		t.Fatalf("closed pool region: err=%v covered=%d", err, sum.Load())
	}
	pool.Close() // idempotent
}

// TestPoolSaturationDegradesNotDeadlocks wedges every resident worker on a
// slow region and checks another region still completes promptly via the
// caller-runs fallback.
func TestPoolSaturationDegradesNotDeadlocks(t *testing.T) {
	pool := NewPool(1)
	defer pool.Close()
	release := make(chan struct{})
	slowDone := make(chan error, 1)
	go func() {
		slowDone <- pool.ForCtx(context.Background(), 2, 2, func(w, lo, hi int) {
			if w == 0 {
				<-release
			}
		})
	}()
	// Give the slow region a moment to occupy the lone worker, then run a
	// fast region; it must finish without the pool's help.
	time.Sleep(10 * time.Millisecond)
	done := make(chan error, 1)
	go func() {
		done <- pool.ForCtx(context.Background(), 4, 100, func(w, lo, hi int) {})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("fast region: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fast region deadlocked behind saturated pool")
	}
	close(release)
	if err := <-slowDone; err != nil {
		t.Fatalf("slow region: %v", err)
	}
}
