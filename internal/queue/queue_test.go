package queue

import (
	"slices"
	"sort"
	"sync"
	"testing"

	"graftmatch/internal/leaktest"
	"graftmatch/internal/par"
)

func TestMain(m *testing.M) { leaktest.Main(m) }

func TestFrontierPushAndSlice(t *testing.T) {
	f := NewFrontier(10)
	f.Push(3)
	f.Push(1)
	f.Push(4)
	if f.Len() != 3 {
		t.Fatalf("len = %d", f.Len())
	}
	got := append([]int32(nil), f.Slice()...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	want := []int32{1, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	f.Reset()
	if f.Len() != 0 {
		t.Fatalf("len after reset = %d", f.Len())
	}
}

func TestFrontierPushBlock(t *testing.T) {
	f := NewFrontier(100)
	f.PushBlock([]int32{1, 2, 3})
	f.PushBlock(nil)
	f.PushBlock([]int32{4})
	if f.Len() != 4 {
		t.Fatalf("len = %d", f.Len())
	}
}

func TestFrontierCapacityPanic(t *testing.T) {
	f := NewFrontier(2)
	f.Push(0)
	f.Push(1)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on overflow")
		}
	}()
	f.Push(2)
}

func TestFrontierBlockCapacityPanic(t *testing.T) {
	f := NewFrontier(2)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on block overflow")
		}
	}()
	f.PushBlock([]int32{0, 1, 2})
}

func TestSwap(t *testing.T) {
	a := NewFrontier(4)
	b := NewFrontier(4)
	a.Push(7)
	a.Swap(b)
	if a.Len() != 0 || b.Len() != 1 || b.Slice()[0] != 7 {
		t.Fatalf("swap broken: a=%v b=%v", a.Slice(), b.Slice())
	}
}

func TestLocalFlushSmall(t *testing.T) {
	f := NewFrontier(10)
	ls := NewLocals(2, f)
	ls[0].Push(1)
	ls[1].Push(2)
	if f.Len() != 0 {
		t.Fatal("local pushes must not reach global before flush")
	}
	ls[0].Flush()
	ls[1].Flush()
	if f.Len() != 2 {
		t.Fatalf("len = %d, want 2", f.Len())
	}
	// Flushing empty buffers is a no-op.
	ls[0].Flush()
	if f.Len() != 2 {
		t.Fatalf("len = %d after empty flush", f.Len())
	}
}

func TestLocalAutoFlushOnFill(t *testing.T) {
	n := LocalCap*3 + 17
	f := NewFrontier(n)
	ls := NewLocals(1, f)
	for i := 0; i < n; i++ {
		ls[0].Push(int32(i))
	}
	ls[0].Flush()
	if f.Len() != n {
		t.Fatalf("len = %d, want %d", f.Len(), n)
	}
	seen := make([]bool, n)
	for _, v := range f.Slice() {
		if seen[v] {
			t.Fatalf("duplicate %d", v)
		}
		seen[v] = true
	}
}

// TestOrderedFill sorts [0, n) into two lists in one statically scheduled
// region, on both of par's executors, and compares each list with a serial
// filter: both must come out in index order at every worker count. Each
// case fills the same frontiers twice, so Gather must leave the runs empty.
func TestOrderedFill(t *testing.T) {
	const big = 20000 // several par blocks per worker at p ≤ 4
	cases := []struct {
		name string
		n    int
		hit  func(i int) bool
	}{
		{"empty", 0, func(int) bool { return true }},
		{"fewer indices than workers", 3, func(i int) bool { return i != 1 }},
		{"later workers without hits", big, func(i int) bool { return i < big/5 }},
		{"first block of a slice without hits", big, func(i int) bool { return i%6000 > 5000 }},
		{"every index a hit", big, func(int) bool { return true }},
	}
	pool := par.NewPool(2)
	defer pool.Close()
	for _, tc := range cases {
		var want [2][]int32
		for i := 0; i < tc.n; i++ {
			k := 1
			if tc.hit(i) {
				k = 0
			}
			want[k] = append(want[k], int32(i))
		}
		for _, pl := range []*par.Pool{nil, pool} {
			for _, p := range []int{1, 2, 3, 4} {
				lists := [2]*Frontier{NewFrontier(tc.n), NewFrontier(tc.n)}
				ls := NewLocals(p, nil)
				for rep := 0; rep < 2; rep++ {
					err := pl.ForCtx(nil, p, tc.n, func(w, lo, hi int) {
						l := &ls[w]
						hits, misses := l.Out(0, lists[0], lo, hi), l.Out(1, lists[1], lo, hi)
						nh, nm := 0, 0
						for i := lo; i < hi; i++ {
							if tc.hit(i) {
								hits[nh] = int32(i)
								nh++
							} else {
								misses[nm] = int32(i)
								nm++
							}
						}
						l.Wrote(0, nh)
						l.Wrote(1, nm)
					})
					if err != nil {
						t.Fatal(err)
					}
					for k, f := range lists {
						f.Gather(ls, k)
						if got := f.Slice(); !slices.Equal(got, want[k]) {
							t.Fatalf("%s, pool %v, p=%d, fill %d: list %d has %d entries %v..., want %d %v...",
								tc.name, pl != nil, p, rep, k, len(got), head(got), len(want[k]), head(want[k]))
						}
					}
				}
			}
		}
	}
}

func head(s []int32) []int32 { return s[:min(len(s), 8)] }

// TestConcurrentProducers checks that many goroutines pushing through
// locals lose nothing and duplicate nothing.
func TestConcurrentProducers(t *testing.T) {
	const p = 8
	const perWorker = 5000
	f := NewFrontier(p * perWorker)
	ls := NewLocals(p, f)
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ls[w].Push(int32(w*perWorker + i))
			}
			ls[w].Flush()
		}(w)
	}
	wg.Wait()
	if f.Len() != p*perWorker {
		t.Fatalf("len = %d, want %d", f.Len(), p*perWorker)
	}
	seen := make([]bool, p*perWorker)
	for _, v := range f.Slice() {
		if seen[v] {
			t.Fatalf("duplicate %d", v)
		}
		seen[v] = true
	}
}
