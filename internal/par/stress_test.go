package par

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
)

// stressSeeds are the fixed seeds each stress run cycles through: a seeded
// per-worker PRNG injects runtime.Gosched at reproducible program points, so
// -race explores perturbed interleavings without making failures flaky.
var stressSeeds = []int64{3, 11, 99, 4096}

func gosched(rng *rand.Rand) {
	if rng.Intn(8) == 0 {
		runtime.Gosched()
	}
}

// markOnce records that iteration i ran, failing the test through the
// returned checker if any iteration ran twice or not at all.
type markOnce struct {
	marks []atomic.Int32
}

func newMarkOnce(n int) *markOnce { return &markOnce{marks: make([]atomic.Int32, n)} }

func (m *markOnce) hit(t *testing.T, i int) {
	if m.marks[i].Add(1) != 1 {
		t.Errorf("iteration %d executed more than once", i)
	}
}

func (m *markOnce) verifyAll(t *testing.T) {
	t.Helper()
	for i := range m.marks {
		if got := m.marks[i].Load(); got != 1 {
			t.Errorf("iteration %d executed %d times, want 1", i, got)
		}
	}
}

// TestStressForExactlyOnce runs For under Gosched perturbation and checks
// every iteration executes exactly once and Counter sums stay exact.
func TestStressForExactlyOnce(t *testing.T) {
	const (
		p = 8
		n = 100_000
	)
	for _, seed := range stressSeeds {
		m := newMarkOnce(n)
		c := NewCounter(p)
		For(p, n, func(w, lo, hi int) {
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for i := lo; i < hi; i++ {
				m.hit(t, i)
				c.Add(w, 1)
				if i%512 == 0 {
					gosched(rng)
				}
			}
		})
		m.verifyAll(t)
		if got := c.Sum(); got != n {
			t.Errorf("seed %d: Counter.Sum() = %d, want %d", seed, got, n)
		}
	}
}

// TestStressForDynamicExactlyOnce does the same for the self-scheduling
// loop, where a racy cursor would hand one chunk to two workers.
func TestStressForDynamicExactlyOnce(t *testing.T) {
	const (
		p     = 8
		n     = 50_000
		grain = 37 // deliberately ragged so the last chunk is partial
	)
	for _, seed := range stressSeeds {
		m := newMarkOnce(n)
		c := NewCounter(p)
		ForDynamic(p, n, grain, func(w, lo, hi int) {
			rng := rand.New(rand.NewSource(seed ^ int64(lo)))
			for i := lo; i < hi; i++ {
				m.hit(t, i)
				c.Add(w, 1)
			}
			gosched(rng)
		})
		m.verifyAll(t)
		if got := c.Sum(); got != n {
			t.Errorf("seed %d: Counter.Sum() = %d, want %d", seed, got, n)
		}
	}
}

// TestStressForCtxExactlyOnce verifies the context-aware loop keeps the
// exactly-once contract when the context never expires.
func TestStressForCtxExactlyOnce(t *testing.T) {
	const (
		p = 8
		n = 100_000
	)
	for _, seed := range stressSeeds {
		m := newMarkOnce(n)
		err := (*Pool)(nil).ForCtx(context.Background(), p, n, func(w, lo, hi int) {
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for i := lo; i < hi; i++ {
				m.hit(t, i)
			}
			gosched(rng)
		})
		if err != nil {
			t.Fatalf("seed %d: ForCtx = %v", seed, err)
		}
		m.verifyAll(t)
	}
}

// TestStressForCtxCancelMidRun cancels while workers are mid-region and
// checks the at-most-once half of the contract plus error reporting: no
// iteration runs twice, and after the cancellation block boundary no new
// blocks start.
func TestStressForCtxCancelMidRun(t *testing.T) {
	const (
		p = 8
		n = 1 << 20
	)
	for _, seed := range stressSeeds {
		ctx, cancel := context.WithCancel(context.Background())
		marks := make([]atomic.Int32, n)
		var done atomic.Int64
		err := (*Pool)(nil).ForCtx(ctx, p, n, func(w, lo, hi int) {
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for i := lo; i < hi; i++ {
				if marks[i].Add(1) != 1 {
					t.Errorf("iteration %d executed more than once", i)
				}
			}
			if done.Add(int64(hi-lo)) > n/8 {
				cancel()
			}
			gosched(rng)
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("seed %d: ForCtx = %v, want context.Canceled", seed, err)
		}
		executed := done.Load()
		if executed == 0 || executed == n {
			t.Errorf("seed %d: executed %d of %d iterations; cancellation should land mid-run", seed, executed, n)
		}
	}
}

// TestStressForDynamicCtxCancel is the dynamic-scheduling analogue: workers
// must stop claiming chunks after cancellation and in-flight chunks complete.
func TestStressForDynamicCtxCancel(t *testing.T) {
	const (
		p     = 8
		n     = 1 << 19
		grain = 64
	)
	for _, seed := range stressSeeds {
		ctx, cancel := context.WithCancel(context.Background())
		marks := make([]atomic.Int32, n)
		var done atomic.Int64
		err := (*Pool)(nil).ForDynamicCtx(ctx, p, n, grain, func(w, lo, hi int) {
			rng := rand.New(rand.NewSource(seed ^ int64(lo)))
			for i := lo; i < hi; i++ {
				if marks[i].Add(1) != 1 {
					t.Errorf("iteration %d executed more than once", i)
				}
			}
			if done.Add(int64(hi-lo)) > n/8 {
				cancel()
			}
			gosched(rng)
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("seed %d: ForDynamicCtx = %v, want context.Canceled", seed, err)
		}
		if executed := done.Load(); executed == 0 || executed == n {
			t.Errorf("seed %d: executed %d of %d iterations; cancellation should land mid-run", seed, executed, n)
		}
	}
}

// TestStressPanicContainment panics in one worker per seed and verifies the
// sibling drain logic under perturbation: the panic surfaces as *PanicError
// and no iteration runs twice even while the region is being torn down.
func TestStressPanicContainment(t *testing.T) {
	const (
		p = 8
		n = 1 << 16
	)
	for _, seed := range stressSeeds {
		marks := make([]atomic.Int32, n)
		err := (*Pool)(nil).ForCtx(context.Background(), p, n, func(w, lo, hi int) {
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for i := lo; i < hi; i++ {
				if marks[i].Add(1) != 1 {
					t.Errorf("iteration %d executed more than once", i)
				}
			}
			gosched(rng)
			if w == int(seed)%p {
				panic("stress: injected worker failure")
			}
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("seed %d: ForCtx = %v, want *PanicError", seed, err)
		}
		if pe.Value != "stress: injected worker failure" {
			t.Errorf("seed %d: PanicError.Value = %v", seed, pe.Value)
		}
	}
}
