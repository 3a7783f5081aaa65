package dist

import (
	"context"
	"time"

	"graftmatch/internal/bipartite"
	"graftmatch/internal/matching"
	"graftmatch/internal/obs"
	"graftmatch/internal/par"
)

const none = matching.None

// Options configures the distributed engine.
type Options struct {
	// Ranks is the number of simulated distributed-memory ranks (K).
	Ranks int
	// Alpha is the graft-decision threshold (|activeX| > |renewableY|/α),
	// as in the shared-memory engine; 0 means 5.
	Alpha float64
	// Grafting toggles the tree-grafting frontier reconstruction; off,
	// every phase restarts from the unmatched X vertices.
	Grafting bool

	// OnPhase, when non-nil, is invoked on the driver goroutine after every
	// completed phase (augmentation done, mate arrays consistent) with the
	// phase count and the current cardinality.
	OnPhase func(phase, cardinality int64)

	// Recorder, when non-nil, receives superstep/message/phase counters,
	// per-superstep and per-phase spans, and phase status updates. All
	// recording happens on the driver goroutine between supersteps; the nil
	// default is a no-op.
	Recorder *obs.Recorder
}

// Stats extends the common matching statistics with the distributed cost
// model: superstep count (network rounds) and message volume.
type Stats struct {
	*matching.Stats
	Ranks      int
	Supersteps int64
	Messages   int64 // logical point-to-point messages plus collective volume
}

// message kinds exchanged between ranks.
const (
	mClaim       uint8 = iota // a,b,c = y, x, root      → owner(y)
	mAddFrontier              // a,b   = x, root         → owner(x)
	mSetLeaf                  // a,b   = root, y         → owner(root)
	mWalkY                    // a,b   = y, root         → owner(y)
	mMatchReq                 // a,b,c = x, y, root      → owner(x)
	mMateAck                  // a,b   = y, x            → owner(y)
	mQuery                    // a,b   = x, y            → owner(x)
	mAccept                   // a,b,c = y, x, root      → owner(y)
)

// Roles of a message's fields: an X or Y vertex of the graph, or one the
// receiving rank owns because it indexes its own block with it.
const (
	argNone uint8 = iota
	argX
	argY
	argOwnX
	argOwnY
)

// msgArgs gives the roles of a, b and c for each message kind, as listed
// above; a worker checks every inbox record against them (checkStep).
var msgArgs = [...][3]uint8{
	mClaim:       {argOwnY, argX, argX},
	mAddFrontier: {argOwnX, argX, argNone},
	mSetLeaf:     {argOwnX, argY, argNone},
	mWalkY:       {argOwnY, argX, argNone},
	mMatchReq:    {argOwnX, argY, argX},
	mMateAck:     {argOwnY, argX, argNone},
	mQuery:       {argOwnX, argY, argNone},
	mAccept:      {argOwnY, argX, argX},
}

type message struct {
	kind    uint8
	a, b, c int32
}

// rank holds the state a physical node would hold: its block of X and Y
// vertex state plus the replicated renewable-root bitmap.
type rank struct {
	id       int
	xlo, xhi int32
	ylo, yhi int32

	rootX []int32 // local X: tree root (global id)
	mateX []int32 // local X: mate (global Y id)
	leaf  []int32 // local X: augmenting-path leaf for owned roots

	visited []bool
	parentY []int32
	rootY   []int32
	mateY   []int32 // local Y: mate (global X id)

	renewable []bool // replicated: root → has an augmenting path

	frontier []int32 // owned X vertices in the current frontier

	newRenewable []int32 // owned roots turned renewable this superstep
	paths        int64   // augmenting walks initiated by this rank

	// Census scratch, reset and refilled by graft each phase so the
	// per-phase census appends reuse capacity instead of growing fresh
	// slices inside the parallel superstep body.
	renewY  []int32 // owned Y vertices in renewable (dead) trees
	activeY []int32 // owned Y vertices in still-active trees

	out [][]message // outboxes indexed by destination rank
	in  []message   // merged inbox for the current superstep
}

func (r *rank) send(dst int, m message) { r.out[dst] = append(r.out[dst], m) }

func (r *rank) lx(x int32) int32 { return x - r.xlo }
func (r *rank) ly(y int32) int32 { return y - r.ylo }

// active reports whether global X vertex x (owned by r) is in an active
// tree under the replicated renewable bitmap.
func (r *rank) active(x int32) bool {
	root := r.rootX[r.lx(x)]
	return root != none && !r.renewable[root]
}

// Engine runs the distributed MS-BFS-Graft simulation: the runPhases
// schedule over in-process ranks, each round's rank compute spread over
// GOMAXPROCS goroutines.
type Engine struct {
	g    *bipartite.Graph
	part Partition
	opts Options
	op   ops // shared per-rank superstep bodies (see ops.go)

	ranks []*rank

	// Round state. The per-rank bodies are bound once in New so a round
	// allocates no closure: execRanks runs curOp and stores each rank's
	// results in info; deliverRanks fills inboxes and merges allNew.
	curOp        byte
	info         [][2]int64
	allNew       []int32
	execRanks    func(worker, lo, hi int)
	deliverRanks func(worker, lo, hi int)

	stats Stats

	// Observability handles; all nil-safe (nil Recorder → nil counters →
	// no-op Add). lastSS anchors per-superstep spans.
	rec                             *obs.Recorder
	mSupersteps, mMessages, mPhases *obs.Counter
	lastSS                          time.Time
}

// New prepares a distributed run over g with an initial matching m (the
// mate arrays are scattered to their owners; m is not mutated until Run).
func New(g *bipartite.Graph, opts Options) *Engine {
	if opts.Ranks < 1 {
		opts.Ranks = 1
	}
	if opts.Alpha <= 0 {
		opts.Alpha = 5
	}
	e := &Engine{
		g:    g,
		part: NewPartition(opts.Ranks, g.NX(), g.NY()),
		opts: opts,
	}
	e.op = ops{g: g, part: e.part}
	e.ranks = make([]*rank, e.part.K)
	for i := range e.ranks {
		e.ranks[i] = newRank(e.part, g.NX(), i)
	}
	e.info = make([][2]int64, e.part.K)
	e.execRanks = func(_, lo, hi int) {
		for _, r := range e.ranks[lo:hi] {
			e.info[r.id], _ = e.op.exec(r, e.curOp, r.in)
		}
	}
	e.deliverRanks = func(_, lo, hi int) {
		for _, d := range e.ranks[lo:hi] {
			d.in = d.in[:0]
			for _, s := range e.ranks {
				d.in = append(d.in, s.out[d.id]...)
			}
			e.op.mergeRenewable(d, e.allNew)
		}
	}
	e.rec = opts.Recorder
	e.mSupersteps = e.rec.Counter("graftmatch_dist_supersteps_total", "BSP supersteps (network rounds) executed")
	e.mMessages = e.rec.Counter("graftmatch_dist_messages_total", "logical point-to-point messages plus collective broadcast volume")
	e.mPhases = e.rec.Counter("graftmatch_dist_phases_total", "completed distributed search phases")
	return e
}

// Run computes a maximum cardinality matching of g starting from m,
// updating m in place, and returns the distributed execution statistics.
func Run(g *bipartite.Graph, m *matching.Matching, opts Options) Stats {
	stats, err := RunCtx(context.Background(), g, m, opts)
	if err != nil {
		// Background is never cancelled, so RunCtx cannot fail here;
		// preserve the invariant loudly rather than return bogus stats.
		panic(err) //lint:ignore err-checked unreachable guard: Background context cannot expire
	}
	return stats
}

// RunCtx is Run under a cancellation context, checked at superstep-safe
// points: between BFS levels and at phase boundaries, where the scattered
// mate arrays are consistent (augmentation walks are never interrupted
// mid-flight). On expiry the partial matching gathered into m is valid and
// contains everything matched at the last safe point — the monotonicity the
// shared-memory engine also guarantees — and the returned stats have
// Complete=false alongside the context's error.
func RunCtx(ctx context.Context, g *bipartite.Graph, m *matching.Matching, opts Options) (Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e := New(g, opts)
	e.stats.Stats = &matching.Stats{
		Algorithm: "Dist-MS-BFS-Graft",
		Threads:   e.part.K,
	}
	e.stats.Ranks = e.part.K
	e.stats.InitialCardinality = m.Cardinality()
	start := time.Now()
	e.scatter(m)
	err := runPhases(ctx, e, &e.stats, e.opts.Grafting, e.opts.Alpha)
	e.gather(m)
	e.stats.Runtime = time.Since(start)
	e.stats.FinalCardinality = m.Cardinality()
	e.stats.Complete = err == nil
	return e.stats, err
}

// scatter distributes the initial matching and resets per-rank state.
func (e *Engine) scatter(m *matching.Matching) {
	par.ForDynamic(0, len(e.ranks), 1, func(_, lo, hi int) {
		for _, r := range e.ranks[lo:hi] {
			e.op.scatter(r, m.MateX[r.xlo:r.xhi], m.MateY[r.ylo:r.yhi])
		}
	})
}

// gather collects the final mate arrays back into m.
func (e *Engine) gather(m *matching.Matching) {
	for _, r := range e.ranks {
		for x := r.xlo; x < r.xhi; x++ {
			m.MateX[x] = r.mateX[r.lx(x)]
		}
		for y := r.ylo; y < r.yhi; y++ {
			m.MateY[y] = r.mateY[r.ly(y)]
		}
	}
}

// round runs op on every rank concurrently, then exchanges; see
// superstepper. The in-process ranks never fail, so err is always nil.
func (e *Engine) round(_ context.Context, op byte) (info [2]int64, msgs int64, err error) {
	info = e.execAll(op)
	return info, e.exchange(), nil
}

// execAll runs op on every rank concurrently and sums their results.
func (e *Engine) execAll(op byte) (info [2]int64) {
	e.curOp = op
	par.ForDynamic(0, len(e.ranks), 1, e.execRanks)
	for _, ri := range e.info {
		info[0] += ri[0]
		info[1] += ri[1]
	}
	return info
}

// exchange delivers all outboxes: rank d's inbox becomes the concatenation
// of out[s][d] in source order (a deterministic alltoallv), and the
// replicated renewable bitmap absorbs every rank's newRenewable roots (a
// collective). It returns the point-to-point messages routed. Delivery is
// reliable: the BSP engine is a deterministic cost model, and network faults
// are the cluster runtime's concern (dist/net).
func (e *Engine) exchange() int64 {
	e.stats.Supersteps++
	e.allNew = e.allNew[:0]
	for _, r := range e.ranks {
		e.allNew = takeNewRenewable(r, e.allNew)
	}
	var msgs int64
	for _, s := range e.ranks {
		for dst := range s.out {
			msgs += int64(len(s.out[dst]))
		}
	}
	total := msgs + int64(len(e.allNew)*(e.part.K-1))
	e.stats.Messages += total
	e.mSupersteps.Add(1)
	e.mMessages.Add(total)
	if e.rec != nil {
		// One span per superstep: compute since the previous exchange plus
		// this delivery, with the message volume as the argument. The nil
		// guard keeps time.Now out of unobserved runs entirely.
		now := time.Now()
		if !e.lastSS.IsZero() {
			e.rec.Span("dist", "superstep", e.lastSS, now.Sub(e.lastSS), total)
		}
		e.lastSS = now
	}

	par.ForDynamic(0, len(e.ranks), 1, e.deliverRanks)
	for _, s := range e.ranks {
		for dst := range s.out {
			s.out[dst] = s.out[dst][:0]
		}
	}
	return msgs
}

// phaseDone exports the phase boundary: one phase span, the recorder status
// update, and the OnPhase hook. The mate arrays are consistent here
// (augmentation walks have drained), so the reported cardinality is the
// matching a gather at this instant would see. A due census runs on every
// rank in place, with no exchange: it sends nothing.
func (e *Engine) phaseDone(_ context.Context, phaseStart time.Time, census bool) (info [2]int64, err error) {
	if census {
		info = e.execAll(opCensus)
	}
	card := e.stats.InitialCardinality + e.stats.AugPaths
	e.mPhases.Add(1)
	e.rec.Span("dist", "phase", phaseStart, time.Since(phaseStart), card)
	e.rec.PhaseDone(e.stats.Algorithm, e.stats.Phases, card)
	if e.opts.OnPhase != nil {
		e.opts.OnPhase(e.stats.Phases, card)
	}
	return info, nil
}
