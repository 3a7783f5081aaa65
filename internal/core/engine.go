package core

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"graftmatch/internal/bipartite"
	"graftmatch/internal/matching"
	"graftmatch/internal/par"
	"graftmatch/internal/queue"
)

const none = matching.None

// phaseHook, when non-nil, is invoked after every BFS forest construction
// (before augmentation) and after every graft or rebuild. It exists solely
// for white-box invariant tests; production code must leave it nil.
var phaseHook func(*engine)

// TestHookWorkerFault, when non-nil, is invoked by every parallel top-down
// worker at the start of each block it claims. It exists solely so tests can
// inject worker panics and exercise the containment path end to end
// (par → engine → facade); production code must leave it nil.
var TestHookWorkerFault func(worker int)

// engine holds the per-run state of Algorithm 3. Array roles follow §III-B:
// parent only on Y (a matched X vertex is reached via its unique mate), root
// on both parts, leaf indexed by tree root (an X vertex). A Y vertex is
// visited exactly when its root is set, so rootY is also the visited flag.
type engine struct {
	g    *bipartite.Graph
	m    *matching.Matching
	opts Options

	// ctx is the run's cancellation context, polled at phase boundaries by
	// the driver and at block granularity inside parallel regions; err
	// latches the first failure (context error or contained worker panic)
	// and is only touched by the driver goroutine.
	ctx context.Context
	err error

	parentY []int32 // Y: parent X vertex in its alternating tree
	rootX   []int32 // X: root of the tree containing x, or none
	rootY   []int32 // Y: root of the tree containing y, or none (unvisited)
	leaf    []int32 // X (roots): unmatched Y leaf ending an augmenting path

	cur, next *queue.Frontier // frontier F (X vertices) double buffer
	locals    []queue.Local

	// unvisitedY tracks |{y : rootY[y]=none}| and unvisitedYEdges the total
	// degree of those vertices. The direction heuristic compares *edge*
	// counts (frontier out-degree vs unvisited in-degree), as in Beamer's
	// original direction-optimizing BFS: vertex counts systematically
	// overestimate the profitability of bottom-up on skewed graphs whose
	// unvisited side is dominated by permanently unreachable vertices.
	// unvisitedYEdges is kept only while keepsDegrees holds.
	unvisitedY      int64
	unvisitedYEdges int64

	// census lists (renewable/active Y), filled in index order. activeY
	// also holds R, the unvisited Y a bottom-up level scans: a BFS level
	// and a graftStep are never live at once.
	renewY, activeY *queue.Frontier

	// renewRoots lists the roots whose leaf went from none to a Y vertex
	// since the last augment — exactly the renewable trees augment walks.
	renewRoots *queue.Frontier

	// bottomUpTripped disables bottom-up traversal for the rest of the run
	// (nothing resets it) once a sweep's adoption rate drops below 1/α. In
	// matching phases — unlike the whole-graph BFS the direction heuristic
	// comes from — a large set of permanently unreachable Y vertices can
	// persist across phases, and every bottom-up sweep rescans their entire
	// adjacency for nothing. A low-yield sweep is the signature of that
	// regime. Grafting sweeps (over renewableY, which is reachable by
	// construction) are unaffected.
	bottomUpTripped bool

	edges      *par.Counter // edges traversed, per worker
	claims     *par.Counter // Y vertices newly claimed, per worker
	claimedDeg *par.Counter // total degree of newly claimed Y, per worker

	// Per-phase counter scratch: augment and graftStep run once per phase,
	// so their counters are Reset and reused instead of reallocated (each
	// Counter is a cache-line-padded cell per worker — a real allocation).
	paths    *par.Counter // augmenting paths flipped this phase
	lens     *par.Counter // total augmenting-path edge length this phase
	phaseDeg *par.Counter // degree sums in graftStep's reset sweeps

	stats *matching.Stats

	// met holds the live-observability handles (all nil-safe no-ops when
	// Options.Recorder is nil).
	met metrics
}

// Run executes the configured algorithm on g, updating m in place to a
// matching whose cardinality is maximum, and returns run statistics. The
// input matching must be valid (typically Karp–Sipser initialized); an
// empty matching is fine. A contained worker panic is re-raised in the
// caller; use RunCtx to receive it as an error instead.
func Run(g *bipartite.Graph, m *matching.Matching, opts Options) *matching.Stats {
	stats, err := RunCtx(context.Background(), g, m, opts)
	if err != nil {
		// Background is never cancelled, so the only possible error is a
		// contained worker panic; preserve Run's panicking contract.
		panic(err) //lint:ignore err-checked re-raising a contained worker panic is Run's documented contract
	}
	return stats
}

// RunCtx is Run under a cancellation context. The context is checked at
// phase boundaries by the driver and at block granularity inside every
// parallel region; on expiry the engine stops cleanly and m holds a valid
// partial matching that contains everything matched at the last phase
// boundary (matched vertices never become unmatched — paper Theorem 1's
// monotonicity), ready to be finished by a later run. The returned stats
// have Complete=false and err is the context's error. A contained worker
// panic is returned as a *par.PanicError.
func RunCtx(ctx context.Context, g *bipartite.Graph, m *matching.Matching, opts Options) (*matching.Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.Defaults()
	nx, ny := int(g.NX()), int(g.NY())
	e := &engine{
		g:          g,
		m:          m,
		opts:       opts,
		ctx:        ctx,
		parentY:    make([]int32, ny),
		rootX:      make([]int32, nx),
		rootY:      make([]int32, ny),
		leaf:       make([]int32, nx),
		cur:        queue.NewFrontier(nx),
		next:       queue.NewFrontier(nx),
		renewY:     queue.NewFrontier(ny),
		activeY:    queue.NewFrontier(ny),
		renewRoots: queue.NewFrontier(nx),
		edges:      par.NewCounter(opts.Threads),
		claims:     par.NewCounter(opts.Threads),
		claimedDeg: par.NewCounter(opts.Threads),
		paths:      par.NewCounter(opts.Threads),
		lens:       par.NewCounter(opts.Threads),
		phaseDeg:   par.NewCounter(opts.Threads),
		stats: &matching.Stats{
			Algorithm: algorithmName(opts),
			Threads:   opts.Threads,
		},
	}
	e.locals = queue.NewLocals(opts.Threads, e.next)
	e.stats.InitialCardinality = m.Cardinality()
	e.met = newMetrics(opts.Recorder)
	qresv := opts.Recorder.Counter("graftmatch_queue_reservations_total",
		"atomic block reservations on the frontier queues")
	for _, f := range []*queue.Frontier{e.cur, e.next, e.renewY, e.activeY, e.renewRoots} {
		f.Instrument(qresv)
	}

	start := time.Now()
	e.run()
	e.stats.Runtime = time.Since(start)
	e.stats.FinalCardinality = m.Cardinality()
	e.stats.Complete = e.err == nil
	return e.stats, e.err
}

// pfor runs a statically scheduled cancellation-aware parallel region on the
// configured scheduler, latching the first failure; it reports whether the
// run may continue.
func (e *engine) pfor(n int, body func(worker, lo, hi int)) bool {
	if e.err != nil {
		return false
	}
	if err := e.opts.Pool.ForCtx(e.ctx, e.opts.Threads, n, body); err != nil {
		e.err = err
		return false
	}
	return true
}

// pforDyn is pfor with dynamic chunk self-scheduling.
func (e *engine) pforDyn(n, grain int, body func(worker, lo, hi int)) bool {
	if e.err != nil {
		return false
	}
	if err := e.opts.Pool.ForDynamicCtx(e.ctx, e.opts.Threads, n, grain, body); err != nil {
		e.err = err
		return false
	}
	return true
}

// stopped is the phase-boundary cancellation check.
func (e *engine) stopped() bool {
	if e.err != nil {
		return true
	}
	if err := e.ctx.Err(); err != nil {
		e.err = err
		return true
	}
	return false
}

// IsCancellation reports whether an engine error is a clean context stop
// (as opposed to a contained worker panic).
func IsCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func algorithmName(o Options) string {
	switch {
	case o.DirectionOptimized && o.Grafting:
		return "MS-BFS-Graft"
	case o.Grafting:
		return "MS-BFS+Graft(no dirOpt)"
	case o.DirectionOptimized:
		return "MS-BFS-DirOpt"
	default:
		return "MS-BFS"
	}
}

func (e *engine) run() {
	nx, ny := int(e.g.NX()), int(e.g.NY())

	if !e.pfor(ny, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			e.rootY[i] = none
			e.parentY[i] = none
		}
	}) {
		return
	}
	if !e.pfor(nx, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			e.rootX[i] = none
			e.leaf[i] = none
		}
	}) {
		return
	}
	e.unvisitedY = int64(ny)
	e.unvisitedYEdges = int64(len(e.g.YNbr()))
	e.seedFrontierFromUnmatched()

	for e.err == nil {
		phaseStart := time.Now()
		var trace []int64

		// Step 1: grow the alternating BFS forest level by level. An
		// interrupted forest is simply abandoned: these steps never touch
		// the mate arrays, so the matching stays as the last phase left it.
		for e.cur.Len() > 0 && e.err == nil {
			fsize := int64(e.cur.Len())
			if e.opts.TraceFrontiers {
				if len(trace) < matching.FrontierTraceMaxLevels {
					// Ownership of the trace transfers to
					// Stats.FrontierTrace each phase, so it cannot be
					// reused scratch; opt-in diagnostics, one append per
					// BFS level, bounded by the documented cap.
					trace = append(trace, fsize) //lint:ignore hotpath-alloc per-phase trace is handed to Stats, not reusable; TraceFrontiers is off by default
				} else {
					e.stats.FrontierTraceTruncated = true
				}
			}
			e.met.frontier.Observe(fsize)
			if e.bottomUpTripped || e.useTopDown() {
				t := time.Now()
				e.topDown()
				e.recordStep(matching.StepTopDown, "top-down", t, fsize)
				e.stats.TopDownLevels++
			} else {
				t := time.Now()
				r := e.collectUnvisitedY()
				e.bottomUp(r)
				if float64(e.claims.Sum())*e.opts.Alpha < float64(len(r)) {
					e.bottomUpTripped = true
				}
				e.recordStep(matching.StepBottomUp, "bottom-up", t, int64(len(r)))
				e.stats.BottomUpLevels++
			}
			e.finishLevel()
		}
		if e.err != nil {
			return
		}
		if e.opts.TraceFrontiers {
			e.stats.AppendFrontierTrace(trace)
		}

		if phaseHook != nil {
			phaseHook(e)
		}

		// Step 2: augment along the discovered vertex-disjoint paths. Each
		// path flips inside one block, so an interrupted augment leaves a
		// valid matching containing every fully flipped path.
		t := time.Now()
		augmented := e.augment()
		e.recordStep(matching.StepAugment, "augment", t, augmented)
		if e.err != nil {
			return
		}

		e.stats.Phases++
		card := e.cardinality()
		e.met.phases.Add(1)
		e.met.rec.Span("core", "phase", phaseStart, time.Since(phaseStart), card)
		e.met.rec.PhaseDone(e.stats.Algorithm, e.stats.Phases, card)
		if e.opts.OnPhase != nil {
			e.opts.OnPhase(e.stats.Phases, card)
		}
		if augmented == 0 {
			return
		}
		if e.stopped() {
			return // phase boundary: the preferred cancellation point
		}

		// Step 3: build the next phase's frontier (graft or rebuild).
		e.graftStep()
		if phaseHook != nil && e.err == nil {
			phaseHook(e)
		}
	}
}

// seedFrontierFromUnmatched sets every unmatched X vertex as the root of a
// fresh singleton active tree and makes them the frontier, in index order
// (an ordered fill), as a serial sweep would.
func (e *engine) seedFrontierFromUnmatched() {
	mateX := e.m.MateX
	e.pfor(len(mateX), func(w, lo, hi int) {
		l := &e.locals[w]
		out, n := l.Out(0, e.cur, lo, hi), 0
		for i := lo; i < hi; i++ {
			if mateX[i] == none {
				x := int32(i)
				e.rootX[x] = x
				e.leaf[x] = none
				out[n] = x
				n++
			}
		}
		l.Wrote(0, n)
	})
	e.cur.Gather(e.locals, 0)
}

// keepsDegrees reports whether unvisitedYEdges is still kept. Only
// useTopDown reads it, and nothing calls useTopDown without direction
// optimization or once the trip-wire has fired (nothing resets it), so from
// then on claims and resets skip the degree reads.
func (e *engine) keepsDegrees() bool {
	return e.opts.DirectionOptimized && !e.bottomUpTripped
}

// useTopDown applies the direction heuristic: top-down while the frontier's
// outgoing edge count is small relative to the edges incident to unvisited
// Y vertices (m_F < m_U/α), the edge-based form of the rule from the
// direction-optimizing BFS the paper builds on. α defaults to 5 (§III-B).
func (e *engine) useTopDown() bool {
	if !e.opts.DirectionOptimized {
		return true
	}
	if e.unvisitedY == 0 {
		return true
	}
	var mf int64
	xptr := e.g.XPtr()
	for _, x := range e.cur.Slice() {
		mf += xptr[x+1] - xptr[x]
	}
	return float64(mf) < float64(e.unvisitedYEdges)/e.opts.Alpha
}

// topDown is Algorithm 4: expand every frontier vertex of an active tree,
// claiming unvisited Y neighbors by CAS of rootY from none to the tree's root
// (test before CAS to avoid wasted atomics). Matched claims push the mate
// into the next frontier; unmatched claims record an augmenting path end in
// leaf[root] (benign race: the last writer wins and the tree keeps exactly
// one path), and the claim that finds leaf[root] unset appends root to
// renewRoots.
func (e *engine) topDown() {
	if e.opts.Threads == 1 {
		e.topDownSerial()
		return
	}
	f := e.cur.Slice()
	mateY := e.m.MateY
	e.pforDyn(len(f), 64, func(w int, lo, hi int) {
		if TestHookWorkerFault != nil {
			TestHookWorkerFault(w)
		}
		l := &e.locals[w]
		keepDeg := e.keepsDegrees()
		var edges, claims, claimedDeg int64
		for i := lo; i < hi; i++ {
			x := f[i]
			root := e.rootX[x]
			if atomic.LoadInt32(&e.leaf[root]) != none {
				continue // tree became renewable; stop growing it
			}
			nbr := e.g.NbrX(x)
			edges += int64(len(nbr))
			for _, y := range nbr {
				if atomic.LoadInt32(&e.rootY[y]) != none {
					continue
				}
				if !atomic.CompareAndSwapInt32(&e.rootY[y], none, root) {
					continue
				}
				claims++
				if keepDeg {
					claimedDeg += e.g.DegY(y)
				}
				e.parentY[y] = x
				if mate := mateY[y]; mate != none {
					e.rootX[mate] = root
					l.Push(mate)
				} else if atomic.SwapInt32(&e.leaf[root], y) == none {
					e.renewRoots.Push(root)
				}
			}
		}
		l.Flush()
		e.edges.Add(w, edges)
		e.claims.Add(w, claims)
		e.claimedDeg.Add(w, claimedDeg)
	})
}

// topDownSerial is topDown without atomics or worker fan-out — the honest
// serial baseline the paper's one-thread measurements correspond to. It
// visits frontier vertices and claims Y neighbors in deterministic order.
func (e *engine) topDownSerial() {
	f := e.cur.Slice()
	mateY := e.m.MateY
	l := &e.locals[0]
	keepDeg := e.keepsDegrees()
	var edges, claims, claimedDeg int64
	for _, x := range f {
		root := e.rootX[x]
		if e.leaf[root] != none {
			continue // tree became renewable; stop growing it
		}
		nbr := e.g.NbrX(x)
		edges += int64(len(nbr))
		for _, y := range nbr {
			if e.rootY[y] != none {
				continue
			}
			claims++
			if keepDeg {
				claimedDeg += e.g.DegY(y)
			}
			e.parentY[y] = x
			e.rootY[y] = root
			if mate := mateY[y]; mate != none {
				e.rootX[mate] = root
				l.Push(mate)
			} else {
				if e.leaf[root] == none {
					e.renewRoots.Push(root)
				}
				e.leaf[root] = y
			}
		}
	}
	l.Flush()
	e.edges.Add(0, edges)
	e.claims.Add(0, claims)
	e.claimedDeg.Add(0, claimedDeg)
}

// collectUnvisitedY gathers the ids of unvisited Y vertices in index order
// (an ordered fill into activeY's storage) — the set R scanned by a regular
// bottom-up step.
func (e *engine) collectUnvisitedY() []int32 {
	e.pfor(len(e.rootY), func(w, lo, hi int) {
		l := &e.locals[w]
		out, n := l.Out(0, e.activeY, lo, hi), 0
		for y := lo; y < hi; y++ {
			if e.rootY[y] == none {
				out[n] = int32(y)
				n++
			}
		}
		l.Wrote(0, n)
	})
	e.activeY.Gather(e.locals, 0)
	return e.activeY.Slice()
}

// bottomUp is Algorithm 6: every y in R scans its neighbors and joins the
// first one found in an active tree, then stops. Each y is owned by exactly
// one worker, so parent/root of y need no atomics; only the shared
// leaf[root] reads/writes and the mate push do.
func (e *engine) bottomUp(r []int32) {
	if e.opts.Threads == 1 {
		e.bottomUpSerial(r)
		return
	}
	mateY := e.m.MateY
	e.pforDyn(len(r), 64, func(w int, lo, hi int) {
		l := &e.locals[w]
		keepDeg := e.keepsDegrees()
		var edges, claims, claimedDeg int64
		for i := lo; i < hi; i++ {
			y := r[i]
			for _, x := range e.g.NbrY(y) {
				edges++
				// rootX is read/written atomically here because another
				// worker may concurrently adopt x's mate-chain neighbor
				// (rootX[mate] store below).
				root := atomic.LoadInt32(&e.rootX[x])
				if root == none || atomic.LoadInt32(&e.leaf[root]) != none {
					continue // x is not in an active tree
				}
				claims++
				if keepDeg {
					claimedDeg += e.g.DegY(y)
				}
				e.parentY[y] = x
				e.rootY[y] = root
				if mate := mateY[y]; mate != none {
					atomic.StoreInt32(&e.rootX[mate], root)
					l.Push(mate)
				} else if atomic.SwapInt32(&e.leaf[root], y) == none {
					e.renewRoots.Push(root)
				}
				break // stop exploring neighbors of y
			}
		}
		l.Flush()
		e.edges.Add(w, edges)
		e.claims.Add(w, claims)
		e.claimedDeg.Add(w, claimedDeg)
	})
}

// bottomUpSerial is bottomUp without atomics for single-thread runs.
func (e *engine) bottomUpSerial(r []int32) {
	mateY := e.m.MateY
	l := &e.locals[0]
	keepDeg := e.keepsDegrees()
	var edges, claims, claimedDeg int64
	for _, y := range r {
		for _, x := range e.g.NbrY(y) {
			edges++
			root := e.rootX[x]
			if root == none || e.leaf[root] != none {
				continue // x is not in an active tree
			}
			claims++
			if keepDeg {
				claimedDeg += e.g.DegY(y)
			}
			e.parentY[y] = x
			e.rootY[y] = root
			if mate := mateY[y]; mate != none {
				e.rootX[mate] = root
				l.Push(mate)
			} else {
				e.leaf[root] = y
				e.renewRoots.Push(root)
			}
			break // stop exploring neighbors of y
		}
	}
	l.Flush()
	e.edges.Add(0, edges)
	e.claims.Add(0, claims)
	e.claimedDeg.Add(0, claimedDeg)
}

// finishLevel swaps the frontier double buffer and folds the per-worker
// counters into the running statistics.
func (e *engine) finishLevel() {
	edges := e.edges.Sum()
	e.stats.EdgesTraversed += edges
	e.met.edges.Add(edges)
	e.unvisitedY -= e.claims.Sum()
	e.unvisitedYEdges -= e.claimedDeg.Sum()
	e.edges.Reset()
	e.claims.Reset()
	e.claimedDeg.Reset()
	e.cur.Swap(e.next)
	e.next.Reset()
}

// augment is Step 2: for every renewable tree (root x0 in renewRoots),
// walk the unique augmenting path leaf→root via parent and mate pointers,
// flipping matched and unmatched edges. Paths are vertex-disjoint across
// trees, so roots are processed in parallel.
func (e *engine) augment() int64 {
	mateX, mateY := e.m.MateX, e.m.MateY
	roots := e.renewRoots.Slice()
	paths, lens := e.paths, e.lens
	paths.Reset()
	lens.Reset()
	e.pforDyn(len(roots), 16, func(w int, lo, hi int) {
		for _, x0 := range roots[lo:hi] {
			y := e.leaf[x0]
			var edgeLen int64
			for {
				x := e.parentY[y]
				prevY := mateX[x]
				mateX[x] = y
				mateY[y] = x
				edgeLen += 2
				if x == x0 {
					break
				}
				y = prevY
			}
			paths.Add(w, 1)
			lens.Add(w, edgeLen-1) // path has 2k+1 edges for k+1 matches
		}
	})
	e.renewRoots.Reset()
	n := paths.Sum()
	e.stats.AugPaths += n
	e.stats.AugPathLen += lens.Sum()
	e.met.paths.Add(n)
	return n
}

// cardinality is |M|: the initial cardinality plus the paths augmented.
func (e *engine) cardinality() int64 {
	return e.stats.InitialCardinality + e.stats.AugPaths
}

// graftStep is Algorithm 7. It takes the census of active and renewable
// vertices (Statistics in Fig. 6), resets the renewable Y state, and either
// grafts renewableY onto the active forest bottom-up or destroys everything
// and restarts from the unmatched X vertices.
func (e *engine) graftStep() {
	// Census (lines 2–4): classify Y by leaf[root] into two lists in index
	// order at every thread count (an ordered fill), which fixes the graft's
	// adoption order. X needs no sweep: after augment every unmatched X
	// roots an active tree and every other active X is the mate of an
	// active (hence matched) Y.
	t := time.Now()
	ok := e.pfor(len(e.rootY), func(w, lo, hi int) {
		l := &e.locals[w]
		act, ren := l.Out(0, e.activeY, lo, hi), l.Out(1, e.renewY, lo, hi)
		na, nr := 0, 0
		for i := lo; i < hi; i++ {
			r := e.rootY[i]
			if r == none {
				continue
			}
			if e.leaf[r] == none {
				act[na] = int32(i)
				na++
			} else {
				ren[nr] = int32(i)
				nr++
			}
		}
		l.Wrote(0, na)
		l.Wrote(1, nr)
	})
	e.activeY.Gather(e.locals, 0)
	e.renewY.Gather(e.locals, 1)
	if !ok {
		return
	}
	activeX := int64(len(e.rootX)) - e.cardinality() + int64(e.activeY.Len())
	e.recordStep(matching.StepStatistics, "statistics", t, int64(e.renewY.Len()))

	// Reset renewable Y state so those vertices can be reused (lines 6–7).
	t = time.Now()
	renewable := e.renewY.Slice()
	renewDeg := e.phaseDeg
	renewDeg.Reset()
	if !e.pfor(len(renewable), func(w, lo, hi int) {
		keepDeg := e.keepsDegrees()
		var deg int64
		for i := lo; i < hi; i++ {
			y := renewable[i]
			e.rootY[y] = none
			e.parentY[y] = none
			if keepDeg {
				deg += e.g.DegY(y)
			}
		}
		renewDeg.Add(w, deg)
	}) {
		return
	}
	e.unvisitedY += int64(len(renewable))
	e.unvisitedYEdges += renewDeg.Sum()

	if e.opts.Grafting && float64(activeX) > float64(len(renewable))/e.opts.Alpha {
		// Graft renewable Y vertices onto active trees (line 9).
		e.next.Reset()
		e.bottomUp(renewable)
		if e.err != nil {
			return
		}
		e.finishLevel()
		e.stats.Grafts++
		e.met.grafts.Add(1)
		e.recordStep(matching.StepGraft, "graft", t, int64(len(renewable)))
		return
	}

	// Regrow from scratch (lines 11–15): clear active forest state and
	// restart from the unmatched X vertices, which re-roots them.
	active := e.activeY.Slice()
	mateY := e.m.MateY
	activeDeg := e.phaseDeg
	activeDeg.Reset()
	if !e.pfor(len(active), func(w, lo, hi int) {
		keepDeg := e.keepsDegrees()
		var deg int64
		for i := lo; i < hi; i++ {
			y := active[i]
			e.rootY[y] = none
			e.parentY[y] = none
			e.rootX[mateY[y]] = none
			if keepDeg {
				deg += e.g.DegY(y)
			}
		}
		activeDeg.Add(w, deg)
	}) {
		return
	}
	e.unvisitedY += int64(len(active))
	e.unvisitedYEdges += activeDeg.Sum()
	e.seedFrontierFromUnmatched()
	e.stats.Rebuilds++
	e.met.rebuilds.Add(1)
	e.recordStep(matching.StepGraft, "rebuild", t, int64(len(active)))
}
