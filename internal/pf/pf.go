// Package pf implements the Pothen–Fan algorithm with fairness: phases of
// multi-source depth-first searches with lookahead, the strongest DFS-based
// comparator in the paper (§V-A, implementation modeled on Azad et al.).
//
// Each phase resets the visited flags and launches a DFS from every
// unmatched X vertex; threads claim Y vertices with CAS so the DFS trees
// stay vertex-disjoint and each thread augments its own path immediately.
// Lookahead gives every X vertex a persistent cursor that first scans for a
// free Y neighbor before descending; fairness alternates the DFS adjacency
// scan direction between phases so deep recursion does not starve the same
// suffix of every adjacency list.
package pf

import (
	"context"
	"sync/atomic"
	"time"

	"graftmatch/internal/bipartite"
	"graftmatch/internal/matching"
	"graftmatch/internal/obs"
	"graftmatch/internal/par"
)

const none = matching.None

// Options configures a context-aware PF run.
type Options struct {
	// Threads is the worker count; 0 means GOMAXPROCS.
	Threads int

	// OnPhase, when non-nil, is invoked on the driver goroutine after every
	// completed phase (a consistent point: the mate arrays form a valid
	// matching) with the phase count and the current cardinality.
	OnPhase func(phase, cardinality int64)

	// Recorder, when non-nil, receives per-phase counters (edges, paths,
	// phases) and one span per phase. Recording happens on the driver
	// goroutine at phase boundaries only; the nil default is a no-op.
	Recorder *obs.Recorder

	// Pool supplies the workers for the parallel regions. Nil means
	// per-call goroutine fan-out; a shared pool bounds the total
	// parallelism of many concurrent runs.
	Pool *par.Pool
}

// Run computes a maximum cardinality matching with the fair Pothen–Fan
// algorithm using p workers, updating m in place. A contained worker panic
// is re-raised in the caller; use RunCtx to receive it as an error instead.
func Run(g *bipartite.Graph, m *matching.Matching, p int) *matching.Stats {
	stats, err := RunCtx(context.Background(), g, m, Options{Threads: p})
	if err != nil {
		// Background is never cancelled: err is a contained worker panic,
		// and re-raising it is Run's documented contract.
		panic(err) //lint:ignore err-checked re-raising a contained worker panic is Run's documented contract
	}
	return stats
}

// RunCtx is Run under a cancellation context, checked at phase boundaries
// and at search granularity inside each phase. Every DFS that finds an
// augmenting path applies it atomically within its own block, so an
// interrupted phase leaves a valid matching that contains every search that
// completed; the returned stats then have Complete=false and err is the
// context's error. A contained worker panic is returned as *par.PanicError.
func RunCtx(ctx context.Context, g *bipartite.Graph, m *matching.Matching, opts Options) (*matching.Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p := opts.Threads
	if p <= 0 {
		p = par.DefaultWorkers()
	}
	pool := opts.Pool
	stats := &matching.Stats{Algorithm: "PF", Threads: p}
	stats.InitialCardinality = m.Cardinality()
	start := time.Now()

	nx, ny := int(g.NX()), int(g.NY())
	visited := make([]int32, ny)
	lookahead := make([]int64, nx) // persistent lookahead cursors
	roots := make([]int32, 0, nx)

	edges := par.NewCounter(p)
	paths := par.NewCounter(p)
	lens := par.NewCounter(p)

	// Reusable per-worker DFS stacks.
	workers := make([]dfsState, p)
	for w := range workers {
		workers[w].init(nx)
	}

	rec := opts.Recorder
	mEdges := rec.Counter("graftmatch_pf_edges_traversed_total", "edges examined by PF lookahead and DFS scans")
	mPaths := rec.Counter("graftmatch_pf_augmenting_paths_total", "augmenting paths applied by PF")
	mPhases := rec.Counter("graftmatch_pf_phases_total", "completed PF phases")
	var prevEdges int64

	var err error
	fair := false
	// Phase-invariant parallel bodies, built once so the phase loop does
	// not allocate a fresh closure per iteration. Both capture variables
	// (visited, roots, fair, ...) the loop mutates in place.
	clearVisited := func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			visited[i] = 0
		}
	}
	searchRoots := func(w int, lo, hi int) {
		st := &workers[w]
		for i := lo; i < hi; i++ {
			if n := st.search(g, m, roots[i], visited, lookahead, fair); n > 0 {
				paths.Add(w, 1)
				lens.Add(w, int64(n))
			}
		}
		edges.Add(w, st.edges)
		st.edges = 0
	}
	for {
		if err = ctx.Err(); err != nil {
			break // phase boundary: the matching is consistent here
		}
		phaseStart := time.Now()
		roots = roots[:0]
		for x := int32(0); x < int32(nx); x++ {
			if m.MateX[x] == none {
				roots = append(roots, x)
			}
		}
		if len(roots) == 0 {
			break
		}
		if err = pool.ForCtx(ctx, p, ny, clearVisited); err != nil {
			break
		}

		before := paths.Sum()
		if err = pool.ForDynamicCtx(ctx, p, len(roots), 1, searchRoots); err != nil {
			break
		}
		stats.Phases++
		card := m.Cardinality()
		after := paths.Sum()
		e := edges.Sum()
		mPaths.Add(after - before)
		mEdges.Add(e - prevEdges)
		prevEdges = e
		mPhases.Add(1)
		rec.Span("pf", "phase", phaseStart, time.Since(phaseStart), card)
		rec.PhaseDone("PF", stats.Phases, card)
		if opts.OnPhase != nil {
			opts.OnPhase(stats.Phases, card)
		}
		fair = !fair
		if after == before {
			break
		}
	}

	stats.EdgesTraversed = edges.Sum()
	stats.AugPaths = paths.Sum()
	stats.AugPathLen = lens.Sum()
	stats.Runtime = time.Since(start)
	stats.FinalCardinality = m.Cardinality()
	stats.Complete = err == nil
	return stats, err
}

// dfsState is a worker-private iterative DFS stack. Workers mutate their
// own state (stack headers, edge counter) on every step, so the struct is
// padded to a whole number of cache lines: adjacent workers' states in the
// workers slice must not share a line.
type dfsState struct {
	pathX []int32 // X vertices on the current path
	pathY []int32 // chosen Y under each X
	iter  []int64 // next adjacency offset per depth
	edges int64
	_     [48]byte // 80 B of fields + 48 B = two cache lines
}

func (st *dfsState) init(nx int) {
	st.pathX = make([]int32, 0, 64)
	st.pathY = make([]int32, 0, 64)
	st.iter = make([]int64, 0, 64)
}

// search runs one DFS with lookahead from root x0. It returns the length of
// the augmenting path in edges, or 0 when none was found. The path is
// augmented before returning (claims make it vertex-disjoint from all
// concurrent searches).
func (st *dfsState) search(g *bipartite.Graph, m *matching.Matching, x0 int32, visited []int32, lookahead []int64, fair bool) int {
	st.pathX = st.pathX[:0]
	st.pathY = st.pathY[:0]
	st.iter = st.iter[:0]
	st.push(x0)
	xptr, xnbr := g.XPtr(), g.XNbr()

	for len(st.pathX) > 0 {
		d := len(st.pathX) - 1
		x := st.pathX[d]
		base, end := xptr[x], xptr[x+1]

		// Lookahead: advance x's persistent cursor hunting a free Y.
		foundEnd := none
		for la := lookahead[x]; la < end-base; la++ {
			y := xnbr[base+la]
			st.edges++
			if atomic.LoadInt32(&m.MateY[y]) != none {
				continue
			}
			if atomic.LoadInt32(&visited[y]) == 0 && atomic.CompareAndSwapInt32(&visited[y], 0, 1) {
				// Claimed a free Y: augmenting path ends here.
				lookahead[x] = la
				foundEnd = y
				break
			}
		}
		if foundEnd != none {
			st.pathY[d] = foundEnd
			st.augment(m)
			return 2*len(st.iter) - 1
		}
		lookahead[x] = end - base

		// Regular DFS descent; scan direction alternates with fairness.
		descended := false
		deg := end - base
		for st.iter[d] < deg {
			k := st.iter[d]
			st.iter[d]++
			off := k
			if fair {
				off = deg - 1 - k
			}
			y := xnbr[base+off]
			st.edges++
			if atomic.LoadInt32(&visited[y]) != 0 {
				continue
			}
			if !atomic.CompareAndSwapInt32(&visited[y], 0, 1) {
				continue
			}
			mate := atomic.LoadInt32(&m.MateY[y])
			if mate == none {
				// Raced free vertex missed by lookahead (its cursor had
				// already passed y): still a valid path end.
				st.pathY[d] = y
				st.augment(m)
				return 2*len(st.iter) - 1
			}
			st.pathY[d] = y
			st.push(mate)
			descended = true
			break
		}
		if !descended {
			st.pop()
		}
	}
	return 0
}

func (st *dfsState) push(x int32) {
	st.pathX = append(st.pathX, x)
	st.pathY = append(st.pathY, none)
	st.iter = append(st.iter, 0)
}

func (st *dfsState) pop() {
	d := len(st.pathX) - 1
	st.pathX = st.pathX[:d]
	st.pathY = st.pathY[:d]
	st.iter = st.iter[:d]
}

// augment flips the path on the stack with atomic stores (concurrent
// searches read mate arrays through atomic loads).
func (st *dfsState) augment(m *matching.Matching) {
	for d := range st.pathX {
		x, y := st.pathX[d], st.pathY[d]
		atomic.StoreInt32(&m.MateX[x], y)
		atomic.StoreInt32(&m.MateY[y], x)
	}
}
