// Package pushrelabel implements the push-relabel (PR) baseline for
// bipartite cardinality matching (§V-A, after Langguth et al.): unit-flow
// push-relabel specialized to the matching network s→X→Y→t with the
// standard "double push" operation, FIFO active processing, periodic global
// relabeling, and a phase-synchronous shared-memory parallelization with
// per-Y locks.
//
// Labels are residual distances toward t: a free Y vertex has label 1, a
// matched Y vertex label d(mate)+1, an X vertex 1 + min over neighbor
// labels. A double push at an active (unmatched) X vertex x relabels x from
// its minimum-label neighbor ymin and pushes: if ymin is free it is matched
// to x, otherwise ymin's mate is stolen and reactivated. Labels only
// increase, which makes stale reads in the parallel variant benign
// under-estimates; admissibility is re-verified under the Y lock before a
// push commits.
package pushrelabel

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

// Options tunes the PR algorithm with the knobs the paper reports (§V-A):
// queue limit 500; global relabel frequency 2 serial, 16 at full threads.
type Options struct {
	// Threads is the worker count; 0 means GOMAXPROCS.
	Threads int

	// RelabelFreq k triggers a global relabel every ⌈n/k⌉ double pushes;
	// 0 picks the paper's setting (2 when serial, 16 otherwise).
	RelabelFreq int

	// QueueLimit caps the per-round work chunk a thread claims from the
	// active queue; 0 means the paper's 500.
	QueueLimit int

	// OnPhase, when non-nil, is invoked on the driver goroutine after every
	// global relabel (PR's phase analog; a consistent point for the mate
	// arrays) with the phase count and the current cardinality.
	OnPhase func(phase, cardinality int64)

	// Recorder, when non-nil, receives per-relabel counter deltas (edges,
	// double pushes, relabels) and one span per global relabel. Recording
	// happens on the driver goroutine at relabel barriers only; the nil
	// default is a no-op.
	Recorder *obs.Recorder

	// Pool supplies the workers for the parallel push rounds. Nil means
	// per-call goroutine fan-out; a shared pool bounds the total
	// parallelism of many concurrent runs.
	Pool *par.Pool
}

// Defaults fills unset fields with the paper's parameters.
func (o Options) Defaults() Options {
	if o.Threads <= 0 {
		o.Threads = par.DefaultWorkers()
	}
	if o.RelabelFreq <= 0 {
		if o.Threads == 1 {
			o.RelabelFreq = 2
		} else {
			o.RelabelFreq = 16
		}
	}
	if o.QueueLimit <= 0 {
		o.QueueLimit = 500
	}
	return o
}

// Run computes a maximum cardinality matching with push-relabel, updating m
// in place. A contained worker panic is re-raised in the caller; use RunCtx
// to receive it as an error instead.
func Run(g *bipartite.Graph, m *matching.Matching, opts Options) *matching.Stats {
	stats, err := RunCtx(context.Background(), g, m, opts)
	if err != nil {
		// Background is never cancelled: err is a contained worker panic,
		// and re-raising it is Run's documented contract.
		panic(err) //lint:ignore err-checked re-raising a contained worker panic is Run's documented contract
	}
	return stats
}

// RunCtx is Run under a cancellation context, checked between rounds of
// active-vertex processing (and, in the parallel variant, at block
// granularity within a round). Push-relabel keeps the mate arrays a valid
// matching after every double push — a push either matches a free Y or
// steals a mate, never decreasing cardinality — so an interrupted run
// returns a valid partial matching; the stats then have Complete=false and
// err is the context's error. A contained worker panic is returned as
// *par.PanicError.
func RunCtx(ctx context.Context, g *bipartite.Graph, m *matching.Matching, opts Options) (*matching.Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.Defaults()
	stats := &matching.Stats{Algorithm: "PR", Threads: opts.Threads}
	stats.InitialCardinality = m.Cardinality()
	start := time.Now()

	e := &prState{g: g, m: m, opts: opts, ctx: ctx, stats: stats}
	e.rec = opts.Recorder
	e.mEdges = e.rec.Counter("graftmatch_pr_edges_traversed_total", "edges examined by PR scans and global relabels")
	e.mPushes = e.rec.Counter("graftmatch_pr_double_pushes_total", "double-push operations committed")
	e.mPhases = e.rec.Counter("graftmatch_pr_relabels_total", "global relabels (PR's phase analog)")
	e.init()
	if opts.Threads == 1 {
		e.runSerial()
	} else {
		e.runParallel()
	}
	e.exportDeltas() // publish the tail since the last relabel barrier

	stats.Runtime = time.Since(start)
	stats.FinalCardinality = m.Cardinality()
	stats.Complete = e.err == nil
	return stats, e.err
}

type prState struct {
	g    *bipartite.Graph
	m    *matching.Matching
	opts Options
	ctx  context.Context
	err  error

	dX, dY []int32
	limit  int32 // labels at or above limit mean "cannot reach a free Y"

	active []int32 // FIFO of active (unmatched, label<limit) X vertices
	next   []int32

	lockY []int32 // per-Y spinlocks for the parallel variant

	pushes        int64 // double pushes since the last global relabel
	relabelPeriod int64

	stats *matching.Stats

	// Observability handles (nil-safe no-ops without a Recorder) and the
	// already-exported cuts of the cumulative stats, so each relabel
	// barrier publishes only its delta.
	rec                 *obs.Recorder
	mEdges              *obs.Counter
	mPushes             *obs.Counter
	mPhases             *obs.Counter
	expEdges, expPushes int64
}

// exportDeltas publishes counter growth since the last export; called at
// relabel barriers and once at run end, so live metrics lag the engine by
// at most one phase.
func (e *prState) exportDeltas() {
	e.mEdges.Add(e.stats.EdgesTraversed - e.expEdges)
	e.expEdges = e.stats.EdgesTraversed
	e.mPushes.Add(e.stats.AugPaths - e.expPushes)
	e.expPushes = e.stats.AugPaths
}

func (e *prState) init() {
	nx, ny := int(e.g.NX()), int(e.g.NY())
	e.dX = make([]int32, nx)
	e.dY = make([]int32, ny)
	e.limit = int32(nx+ny) + 2
	e.lockY = make([]int32, ny)
	n := int64(nx + ny)
	e.relabelPeriod = n / int64(e.opts.RelabelFreq)
	if e.relabelPeriod < 1 {
		e.relabelPeriod = 1
	}
	e.globalRelabel()
	e.active = e.active[:0]
	for x := int32(0); x < int32(nx); x++ {
		if e.m.MateX[x] == none && e.dX[x] < e.limit {
			e.active = append(e.active, x)
		}
	}
}

// globalRelabel recomputes exact residual distances by a backward
// alternating BFS from the free Y vertices. Unreached vertices get the
// limit label. Runs at a barrier (no concurrent pushes).
func (e *prState) globalRelabel() {
	nx, ny := int(e.g.NX()), int(e.g.NY())
	for i := 0; i < nx; i++ {
		e.dX[i] = e.limit
	}
	frontier := make([]int32, 0, ny)
	for y := int32(0); y < int32(ny); y++ {
		if e.m.MateY[y] == none {
			e.dY[y] = 1
			frontier = append(frontier, y)
		} else {
			e.dY[y] = e.limit
		}
	}
	// Level-synchronous: Y at distance d settles X neighbors at d+1; a
	// matched X at d+1 settles its mate Y at d+2.
	nextF := make([]int32, 0, ny)
	for len(frontier) > 0 {
		nextF = nextF[:0]
		for _, y := range frontier {
			nbr := e.g.NbrY(y)
			e.stats.EdgesTraversed += int64(len(nbr))
			for _, x := range nbr {
				if e.dX[x] != e.limit {
					continue
				}
				e.dX[x] = e.dY[y] + 1
				if my := e.m.MateX[x]; my != none && e.dY[my] == e.limit {
					e.dY[my] = e.dX[x] + 1
					nextF = append(nextF, my)
				}
			}
		}
		frontier, nextF = nextF, frontier
	}
}

// scanMin returns x's neighbor with minimum label and that label.
func (e *prState) scanMin(x int32) (int32, int32) {
	ymin, dmin := none, e.limit
	nbr := e.g.NbrX(x)
	for _, y := range nbr {
		if d := e.dY[y]; d < dmin {
			dmin = d
			ymin = y
		}
	}
	return ymin, dmin
}

func (e *prState) runSerial() {
	mateX, mateY := e.m.MateX, e.m.MateY
	for {
		if e.err = e.ctx.Err(); e.err != nil {
			return // round boundary: the matching is consistent here
		}
		if len(e.active) == 0 {
			return
		}
		e.next = e.next[:0]
		for _, x := range e.active {
			// x may have been matched since being queued only in the
			// parallel variant; serially, queued x is always unmatched.
			for mateX[x] == none {
				if e.pushes >= e.relabelPeriod {
					e.pushes = 0
					t := time.Now()
					e.globalRelabel()
					e.stats.Phases++ // count global relabels as phases
					card := e.m.Cardinality()
					e.mPhases.Add(1)
					e.exportDeltas()
					e.rec.Span("pr", "relabel", t, time.Since(t), card)
					e.rec.PhaseDone("PR", e.stats.Phases, card)
					if e.opts.OnPhase != nil {
						e.opts.OnPhase(e.stats.Phases, card)
					}
					if e.dX[x] >= e.limit {
						break
					}
				}
				ymin, dmin := e.scanMin(x)
				e.stats.EdgesTraversed += e.g.DegX(x)
				if dmin >= e.limit {
					e.dX[x] = e.limit // x can never be matched
					break
				}
				e.dX[x] = dmin + 1
				e.pushes++
				old := mateY[ymin]
				mateY[ymin] = x
				mateX[x] = ymin
				e.dY[ymin] = e.dX[x] + 1
				if old != none {
					mateX[old] = none
					e.next = append(e.next, old)
				}
				e.stats.AugPaths++ // count double pushes as augment ops
				break
			}
			if mateX[x] == none && e.dX[x] < e.limit {
				e.next = append(e.next, x)
			}
		}
		e.active, e.next = e.next, e.active
	}
}

func (e *prState) runParallel() {
	p := e.opts.Threads
	mateX, mateY := e.m.MateX, e.m.MateY
	var pushCount atomic.Int64
	edges := par.NewCounter(p)
	pushOps := par.NewCounter(p)

	// Round-invariant scratch and parallel body, hoisted out of the round
	// loop: the per-worker activation lists keep their capacity across
	// rounds, and the closure is allocated once instead of per round.
	nextLocal := make([][]int32, p)
	grain := e.opts.QueueLimit
	if grain > 64 {
		grain = 64
	}
	// Queue uniqueness invariant: every x appears in the round's active
	// queue at most once, its fate is decided exactly once by the
	// worker that owns it (matched, dead, or — never — requeued by the
	// owner), and a stolen mate is requeued exactly once by the thief.
	// This prevents two workers from double-pushing the same x.
	// Every committed push leaves the mate arrays a valid matching, so
	// a cancelled round (blocks stop being claimed) is safe to abandon.
	pushRound := func(w int, lo, hi int) {
		for i := lo; i < hi; i++ {
			x := e.active[i]
		retry:
			if atomic.LoadInt32(&mateX[x]) != none {
				continue // matched then stolen races are handled by the thief
			}
			// Scan with possibly stale labels (monotone ⇒ stale is an
			// underestimate, so the relabel below stays valid).
			ymin, dmin := none, e.limit
			nbr := e.g.NbrX(x)
			edges.Add(w, int64(len(nbr)))
			for _, y := range nbr {
				if d := atomic.LoadInt32(&e.dY[y]); d < dmin {
					dmin = d
					ymin = y
				}
			}
			if dmin >= e.limit {
				atomic.StoreInt32(&e.dX[x], e.limit)
				continue
			}
			// Commit under ymin's lock, verifying the label we based
			// admissibility on has not increased.
			e.lock(ymin)
			if atomic.LoadInt32(&e.dY[ymin]) != dmin {
				e.unlock(ymin)
				goto retry
			}
			atomic.StoreInt32(&e.dX[x], dmin+1)
			old := mateY[ymin]
			mateY[ymin] = x
			atomic.StoreInt32(&mateX[x], ymin)
			atomic.StoreInt32(&e.dY[ymin], dmin+2)
			e.unlock(ymin)
			pushOps.Add(w, 1)
			if old != none {
				atomic.StoreInt32(&mateX[old], none)
				nextLocal[w] = append(nextLocal[w], old)
			}
			pushCount.Add(1)
		}
	}

	for {
		if e.err = e.ctx.Err(); e.err != nil {
			break // round boundary: the matching is consistent here
		}
		if len(e.active) == 0 {
			break
		}
		// Collect next-round activations per worker, then merge.
		for w := range nextLocal {
			nextLocal[w] = nextLocal[w][:0]
		}
		if e.err = e.opts.Pool.ForDynamicCtx(e.ctx, p, len(e.active), grain, pushRound); e.err != nil {
			break
		}

		e.next = e.next[:0]
		for _, local := range nextLocal {
			for _, x := range local {
				if mateX[x] == none && e.dX[x] < e.limit {
					e.next = append(e.next, x)
				}
			}
		}
		e.active, e.next = e.next, e.active

		if pushCount.Load() >= e.relabelPeriod {
			pushCount.Store(0)
			t := time.Now()
			e.globalRelabel()
			e.stats.Phases++
			// Fold the round counters at this barrier (workers joined), so
			// the exported deltas cover everything up to this relabel.
			e.stats.EdgesTraversed += edges.Sum()
			e.stats.AugPaths += pushOps.Sum()
			edges.Reset()
			pushOps.Reset()
			card := e.m.Cardinality()
			e.mPhases.Add(1)
			e.exportDeltas()
			e.rec.Span("pr", "relabel", t, time.Since(t), card)
			e.rec.PhaseDone("PR", e.stats.Phases, card)
			if e.opts.OnPhase != nil {
				e.opts.OnPhase(e.stats.Phases, card)
			}
			// Re-filter actives under fresh labels.
			w := 0
			for _, x := range e.active {
				if e.dX[x] < e.limit {
					e.active[w] = x
					w++
				}
			}
			e.active = e.active[:w]
		}
	}
	e.stats.EdgesTraversed += edges.Sum()
	e.stats.AugPaths += pushOps.Sum()
}

func (e *prState) lock(y int32) {
	for !atomic.CompareAndSwapInt32(&e.lockY[y], 0, 1) {
	}
}

func (e *prState) unlock(y int32) {
	atomic.StoreInt32(&e.lockY[y], 0)
}
