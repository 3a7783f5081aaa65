package matchinit

import (
	"sync/atomic"

	"graftmatch/internal/bipartite"
	"graftmatch/internal/matching"
	"graftmatch/internal/par"
)

// reserved marks an X vertex whose owning worker is currently trying to
// match it; it is never left in the mate array.
const reserved int32 = -2

// pksWorker is the per-worker state of ParallelKarpSipser: a private stack
// of discovered degree-1 vertices (X encoded as v ≥ 0, Y as ^v) drained
// immediately after every match, which preserves the serial algorithm's
// match-then-cascade interleaving inside each worker.
type pksWorker struct {
	stack []int32
	// Pad to one full cache line: the stack header is rewritten on every
	// push/pop, and adjacent workers' headers in the workers slice must
	// not share a line.
	_ [40]byte
}

// ParallelKarpSipser computes a maximal matching with a shared-memory
// relaxation of Karp–Sipser (after Azad & Buluç's parallel cardinality
// heuristics). Degrees are maintained with atomic decrements; pair claims
// are linearized by CAS on the mate arrays; each worker cascades the
// degree-1 rule depth-first on its own stack the moment a match creates new
// degree-1 vertices. The result is maximal and typically within a percent
// of serial Karp–Sipser, but not deterministic across thread counts.
func ParallelKarpSipser(g *bipartite.Graph, p int) *matching.Matching {
	if p <= 0 {
		p = par.DefaultWorkers()
	}
	nx, ny := int(g.NX()), int(g.NY())
	m := matching.New(g.NX(), g.NY())
	mateX, mateY := m.MateX, m.MateY

	degX := make([]int32, nx)
	degY := make([]int32, ny)
	par.For(p, nx, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			degX[i] = int32(g.DegX(int32(i)))
		}
	})
	par.For(p, ny, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			degY[i] = int32(g.DegY(int32(i)))
		}
	})

	workers := make([]pksWorker, p)

	// matchPair finalizes (x, y) after winning the mateY CAS: records the
	// X side and decrements neighbor degrees, pushing new degree-1
	// vertices onto the worker's cascade stack.
	matchPair := func(st *pksWorker, x, y int32) {
		atomic.StoreInt32(&mateX[x], y)
		for _, yy := range g.NbrX(x) {
			if atomic.LoadInt32(&mateY[yy]) == matching.None {
				if atomic.AddInt32(&degY[yy], -1) == 1 {
					st.stack = append(st.stack, ^yy)
				}
			}
		}
		for _, xx := range g.NbrY(y) {
			if atomic.LoadInt32(&mateX[xx]) == matching.None {
				if atomic.AddInt32(&degX[xx], -1) == 1 {
					st.stack = append(st.stack, xx)
				}
			}
		}
	}

	// tryMatchX reserves x, then claims its first free neighbor.
	tryMatchX := func(st *pksWorker, x int32) {
		if !atomic.CompareAndSwapInt32(&mateX[x], matching.None, reserved) {
			return // matched or being matched by another worker
		}
		for _, y := range g.NbrX(x) {
			if atomic.LoadInt32(&mateY[y]) != matching.None {
				continue
			}
			if atomic.CompareAndSwapInt32(&mateY[y], matching.None, x) {
				matchPair(st, x, y)
				return
			}
		}
		atomic.StoreInt32(&mateX[x], matching.None) // no free neighbor
	}

	// tryMatchY claims a free X neighbor for y; the X-side reservation is
	// the single linearization point for both directions.
	tryMatchY := func(st *pksWorker, y int32) {
		if atomic.LoadInt32(&mateY[y]) != matching.None {
			return
		}
		for _, x := range g.NbrY(y) {
			if atomic.LoadInt32(&mateX[x]) != matching.None {
				continue
			}
			if !atomic.CompareAndSwapInt32(&mateX[x], matching.None, reserved) {
				continue
			}
			if atomic.CompareAndSwapInt32(&mateY[y], matching.None, x) {
				matchPair(st, x, y)
				return
			}
			// y was taken while we held x; release x and stop.
			atomic.StoreInt32(&mateX[x], matching.None)
			return
		}
	}

	// drain cascades the worker's private degree-1 stack to exhaustion.
	drain := func(st *pksWorker) {
		for len(st.stack) > 0 {
			v := st.stack[len(st.stack)-1]
			st.stack = st.stack[:len(st.stack)-1]
			if v >= 0 {
				if atomic.LoadInt32(&degX[v]) == 1 {
					tryMatchX(st, v)
				}
			} else {
				y := ^v
				if atomic.LoadInt32(&degY[y]) == 1 {
					tryMatchY(st, y)
				}
			}
		}
	}

	// Pass 1: the initial degree-1 vertices, cascading locally.
	par.ForDynamic(p, nx+ny, 512, func(w int, lo, hi int) {
		st := &workers[w]
		for i := lo; i < hi; i++ {
			if i < nx {
				if atomic.LoadInt32(&degX[i]) == 1 {
					st.stack = append(st.stack, int32(i))
				}
			} else if atomic.LoadInt32(&degY[i-nx]) == 1 {
				st.stack = append(st.stack, ^int32(i-nx))
			}
			drain(st)
		}
	})

	// Pass 2: remaining vertices in index order, still cascading after
	// every match (the serial algorithm's phase-2 interleaving).
	par.ForDynamic(p, nx, 64, func(w int, lo, hi int) {
		st := &workers[w]
		for i := lo; i < hi; i++ {
			x := int32(i)
			if atomic.LoadInt32(&mateX[x]) == matching.None {
				tryMatchX(st, x)
				drain(st)
			}
		}
	})
	return m
}
