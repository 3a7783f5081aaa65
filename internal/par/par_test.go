package par

import (
	"sync/atomic"
	"testing"
	"testing/quick"

	"graftmatch/internal/leaktest"
)

func TestMain(m *testing.M) { leaktest.Main(m) }

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 2, 7, 100, 1000} {
			seen := make([]int32, n)
			For(p, n, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("p=%d n=%d: index %d covered %d times", p, n, i, c)
				}
			}
		}
	}
}

func TestForDynamicCoversRangeExactlyOnce(t *testing.T) {
	for _, p := range []int{1, 2, 4, 16} {
		for _, grain := range []int{0, 1, 3, 64, 1000} {
			n := 777
			seen := make([]int32, n)
			ForDynamic(p, n, grain, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("p=%d grain=%d: index %d covered %d times", p, grain, i, c)
				}
			}
		}
	}
}

func TestForWorkerIDsDistinct(t *testing.T) {
	p := 4
	n := 1000
	var used [4]int32
	For(p, n, func(w, lo, hi int) {
		if w < 0 || w >= p {
			t.Errorf("worker id %d out of range", w)
			return
		}
		atomic.AddInt32(&used[w], 1)
	})
	for w, c := range used {
		if c != 1 {
			t.Fatalf("worker %d ran %d block(s), want 1", w, c)
		}
	}
}

func TestForZeroAndNegative(t *testing.T) {
	ran := false
	For(4, 0, func(_, _, _ int) { ran = true })
	For(4, -5, func(_, _, _ int) { ran = true })
	ForDynamic(4, 0, 8, func(_, _, _ int) { ran = true })
	if ran {
		t.Fatal("body ran for empty range")
	}
}

func TestForDefaultWorkers(t *testing.T) {
	// p <= 0 must fall back to GOMAXPROCS and still cover the range.
	n := 50
	var sum atomic.Int64
	For(0, n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			sum.Add(int64(i))
		}
	})
	if want := int64(n * (n - 1) / 2); sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
}

func TestCounter(t *testing.T) {
	p := 8
	c := NewCounter(p)
	For(p, p, func(w, _, _ int) {
		for i := 0; i < 1000; i++ {
			c.Add(w, 1)
		}
	})
	if c.Sum() != 8000 {
		t.Fatalf("sum = %d, want 8000", c.Sum())
	}
	c.Reset()
	if c.Sum() != 0 {
		t.Fatalf("sum after reset = %d", c.Sum())
	}
}

// TestForSumProperty: parallel block sum equals serial sum for arbitrary
// p and n.
func TestForSumProperty(t *testing.T) {
	f := func(pRaw, nRaw uint16) bool {
		p := int(pRaw%16) + 1
		n := int(nRaw % 5000)
		var sum atomic.Int64
		For(p, n, func(_, lo, hi int) {
			var local int64
			for i := lo; i < hi; i++ {
				local += int64(i)
			}
			sum.Add(local)
		})
		return sum.Load() == int64(n)*int64(n-1)/2 || n == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestClampWorkers(t *testing.T) {
	if clampWorkers(0) < 1 || clampWorkers(-3) < 1 {
		t.Fatal("clamp must return at least 1")
	}
	if clampWorkers(5) != 5 {
		t.Fatal("clamp must preserve positive values")
	}
	if DefaultWorkers() < 1 {
		t.Fatal("DefaultWorkers < 1")
	}
}
