// Package graftmatch computes maximum cardinality matchings in bipartite
// graphs on shared-memory parallel machines. It implements the MS-BFS-Graft
// algorithm of Azad, Buluç and Pothen ("A Parallel Tree Grafting Algorithm
// for Maximum Cardinality Matching in Bipartite Graphs", IPDPS 2015) —
// multi-source breadth-first search with tree grafting and
// direction-optimizing traversal — together with the classical algorithms
// the paper evaluates against (Pothen–Fan, push-relabel, Hopcroft–Karp,
// single-source BFS/DFS, plain MS-BFS) and the Dulmage–Mendelsohn block
// triangular decomposition as the motivating application.
//
// # Quickstart
//
//	g := graftmatch.MustFromEdges(4, 4, []graftmatch.Edge{{0, 0}, {0, 1}, {1, 0}, {2, 2}, {3, 2}})
//	res, err := graftmatch.Match(g, graftmatch.Options{})
//	if err != nil { ... }
//	fmt.Println(res.Cardinality)   // 3
//	fmt.Println(res.MateX)         // mate of each X vertex, -1 if unmatched
//
// The zero Options run MS-BFS-Graft with Karp–Sipser initialization on
// GOMAXPROCS workers — the configuration the paper recommends.
package graftmatch

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"graftmatch/internal/bipartite"
	"graftmatch/internal/core"
	"graftmatch/internal/dmperm"
	"graftmatch/internal/hk"
	"graftmatch/internal/matching"
	"graftmatch/internal/matchinit"
	"graftmatch/internal/mmio"
	"graftmatch/internal/obs"
	"graftmatch/internal/par"
	"graftmatch/internal/pf"
	"graftmatch/internal/pushrelabel"
	"graftmatch/internal/ssbfs"
	"graftmatch/internal/ssdfs"
)

// Unmatched marks an unmatched vertex in mate arrays.
const Unmatched int32 = -1

// Graph is an immutable bipartite graph in CSR form; build one with
// NewBuilder, FromEdges, or ReadMatrixMarket.
type Graph = bipartite.Graph

// Edge is an (X, Y) vertex pair.
type Edge = bipartite.Edge

// Builder accumulates edges into a Graph.
type Builder = bipartite.Builder

// Stats reports the per-run metrics of a matching algorithm (edges
// traversed, phases, augmenting path lengths, step time breakdown).
type Stats = matching.Stats

// Decomposition is a Dulmage–Mendelsohn / block-triangular decomposition.
type Decomposition = dmperm.Decomposition

// Recorder is the live observability hub: a registry of atomic counters,
// gauges and histograms, a bounded span tracer, and a run-status snapshot.
// Pass one via Options.Recorder to observe a run; serve it with
// ObsHandler. A nil *Recorder (the default) is a no-op that costs the
// engines nothing.
type Recorder = obs.Recorder

// RecorderConfig sizes a Recorder's span ring; the zero value means 16384
// spans.
type RecorderConfig = obs.Config

// NewRecorder builds a live Recorder.
func NewRecorder(cfg RecorderConfig) *Recorder { return obs.New(cfg) }

// ObsHandler serves rec's operational surface over HTTP: /metrics
// (Prometheus text), /metrics.json, /status (live run status), /trace
// (Chrome trace-event JSON, loadable in Perfetto), /trace/summary (flame
// summary), /debug/pprof/* and /debug/vars. Safe on a nil recorder (all
// endpoints report empty state).
func ObsHandler(rec *Recorder) http.Handler { return obs.Handler(rec) }

// WorkerPool is a fixed set of resident workers that runs the parallel
// regions of every run that carries it in Options.Pool. A process
// serving many concurrent matchings keeps its total compute parallelism at
// the pool size instead of multiplying GOMAXPROCS per request; a saturated
// or closed pool degrades regions to inline execution on the calling
// goroutine rather than queueing unboundedly.
type WorkerPool = par.Pool

// NewWorkerPool starts a shared pool of workers (0 means GOMAXPROCS).
// Close it when no more runs will use it; runs already in flight complete.
func NewWorkerPool(workers int) *WorkerPool { return par.NewPool(workers) }

// NewBuilder returns a Builder for a graph with nx X-vertices (rows) and ny
// Y-vertices (columns).
func NewBuilder(nx, ny int32) *Builder { return bipartite.NewBuilder(nx, ny) }

// FromEdges builds a Graph from an edge list, coalescing duplicates.
func FromEdges(nx, ny int32, edges []Edge) (*Graph, error) {
	return bipartite.FromEdges(nx, ny, edges)
}

// MustFromEdges is FromEdges that panics on error.
func MustFromEdges(nx, ny int32, edges []Edge) *Graph {
	return bipartite.MustFromEdges(nx, ny, edges)
}

// ReadMatrixMarket parses a Matrix Market coordinate file into the bipartite
// graph of its sparsity pattern (rows → X, columns → Y).
func ReadMatrixMarket(r io.Reader) (*Graph, error) { return mmio.Read(r) }

// ReadMatrixMarketFile reads a Matrix Market file from disk.
func ReadMatrixMarketFile(path string) (*Graph, error) { return mmio.ReadFile(path) }

// ReadGraphFile reads a graph from disk, dispatching on extension:
// .mtx (Matrix Market) or .el/.txt (0-based edge list), each optionally
// gzip-compressed with a trailing .gz.
func ReadGraphFile(path string) (*Graph, error) { return mmio.ReadAuto(path) }

// WriteGraphFile writes a graph to disk with the same extension dispatch
// as ReadGraphFile.
func WriteGraphFile(path string, g *Graph) error { return mmio.WriteAuto(path, g) }

// WriteMatrixMarket writes g as a coordinate-pattern Matrix Market file.
func WriteMatrixMarket(w io.Writer, g *Graph) error { return mmio.Write(w, g) }

// Algorithm selects a maximum matching algorithm.
type Algorithm int

// Available algorithms. MSBFSGraft is the paper's contribution and the
// default; the rest are the baselines of its evaluation.
const (
	MSBFSGraft   Algorithm = iota // multi-source BFS + tree grafting + direction optimization
	MSBFS                         // multi-source BFS, no grafting, top-down only
	MSBFSDirOpt                   // multi-source BFS + direction optimization, no grafting
	PothenFan                     // multi-source DFS with lookahead and fairness
	PushRelabel                   // unit-flow push-relabel with global relabeling
	HopcroftKarp                  // shortest-augmenting-path phases
	SSBFS                         // single-source BFS with failed-tree pruning
	SSDFS                         // single-source DFS with failed-tree pruning
)

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case MSBFSGraft:
		return "MS-BFS-Graft"
	case MSBFS:
		return "MS-BFS"
	case MSBFSDirOpt:
		return "MS-BFS-DirOpt"
	case PothenFan:
		return "PF"
	case PushRelabel:
		return "PR"
	case HopcroftKarp:
		return "HK"
	case SSBFS:
		return "SS-BFS"
	case SSDFS:
		return "SS-DFS"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Initializer selects the maximal-matching heuristic run before the exact
// algorithm.
type Initializer int

// Available initializers. The paper uses Karp–Sipser for every algorithm.
const (
	KarpSipser Initializer = iota
	Greedy
	ParallelGreedy
	NoInit // start from the empty matching

	// ParallelKarpSipser is the shared-memory Karp–Sipser relaxation with
	// worker-local degree-1 cascading; near-serial quality, not
	// deterministic across thread counts.
	ParallelKarpSipser
)

// algorithmNames and initializerNames are the one name vocabulary of the
// command-line tools and matchd's requests; the empty name is the default.
var algorithmNames = map[string]Algorithm{
	"":           MSBFSGraft,
	"msbfsgraft": MSBFSGraft,
	"msbfs":      MSBFS,
	"diropt":     MSBFSDirOpt,
	"pf":         PothenFan,
	"pr":         PushRelabel,
	"hk":         HopcroftKarp,
	"ssbfs":      SSBFS,
	"ssdfs":      SSDFS,
}

var initializerNames = map[string]Initializer{
	"":        KarpSipser,
	"ks":      KarpSipser,
	"greedy":  Greedy,
	"pgreedy": ParallelGreedy,
	"pks":     ParallelKarpSipser,
	"none":    NoInit,
}

// ParseAlgorithm maps a short algorithm name, case-insensitive, to its
// Algorithm: msbfsgraft, msbfs, diropt, pf, pr, hk, ssbfs or ssdfs. The
// empty name is the default, MSBFSGraft.
func ParseAlgorithm(name string) (Algorithm, error) {
	a, ok := algorithmNames[strings.ToLower(name)]
	if !ok {
		return 0, fmt.Errorf("graftmatch: unknown algorithm %q", name)
	}
	return a, nil
}

// ParseInitializer maps a short initializer name, case-insensitive, to its
// Initializer: ks (Karp–Sipser), greedy, pgreedy, pks or none. The empty
// name is the default, KarpSipser.
func ParseInitializer(name string) (Initializer, error) {
	i, ok := initializerNames[strings.ToLower(name)]
	if !ok {
		return 0, fmt.Errorf("graftmatch: unknown initializer %q", name)
	}
	return i, nil
}

// Options configures Match. The zero value selects the paper's defaults:
// MS-BFS-Graft, Karp–Sipser initialization, GOMAXPROCS threads, α = 5.
type Options struct {
	Algorithm   Algorithm
	Initializer Initializer

	// Threads is the worker count; 0 means GOMAXPROCS. Single-source
	// algorithms and Hopcroft–Karp are serial and ignore it.
	Threads int

	// Alpha is the direction-switch/graft threshold of MS-BFS-Graft;
	// 0 means 5 (the paper's recommendation).
	Alpha float64

	// Seed drives the Karp–Sipser random vertex order.
	Seed int64

	// TraceFrontiers records per-level frontier sizes (Fig. 8) for the
	// MS-BFS family.
	TraceFrontiers bool

	// Deadline, when non-zero, bounds the exact algorithm's wall-clock
	// time. A run that reaches it stops at the next consistent point (a
	// phase or round boundary) and returns the partial matching with
	// Result.Complete == false and a nil error. Both Match and MatchContext
	// honor it; the initializer is not interrupted.
	Deadline time.Time

	// OnPhase, when non-nil, is invoked on the calling goroutine after
	// every completed phase of a parallel algorithm (MS-BFS family,
	// Pothen–Fan; push-relabel calls it at global relabels) with the phase
	// count and the current matching cardinality. The mate arrays form a
	// valid matching at each call; cancelling the MatchContext context from
	// the hook stops the run at that boundary. Serial algorithms ignore it.
	OnPhase func(phase, cardinality int64)

	// Checkpoint, when non-nil, persists crash-safe snapshots of the run
	// state at phase boundaries, so a killed process can restart from disk
	// with LoadCheckpoint + ResumeMatch instead of recomputing. Snapshot
	// failures never abort the run; see Result.CheckpointErr.
	Checkpoint *CheckpointOptions

	// Recorder, when non-nil, receives live metrics (per-phase counters,
	// step-time breakdowns, queue and checkpoint I/O), one trace span per
	// phase/step, and run-status updates from every layer of the run —
	// engine and checkpoint writer. Serve it over HTTP with ObsHandler.
	// The nil default records nothing and costs nothing.
	Recorder *Recorder

	// Pool, when non-nil, supplies the workers for every parallel region of
	// the run — a WorkerPool shared across concurrent runs so their
	// combined parallelism stays bounded at the pool size. Nil spawns fresh
	// goroutines per parallel call (the right default for a run that owns
	// the machine). Serial algorithms ignore it.
	Pool *WorkerPool
}

// Result is the outcome of Match.
type Result struct {
	// MateX[x] is the Y vertex matched to X vertex x, or Unmatched;
	// MateY is the inverse map.
	MateX []int32
	MateY []int32

	// Cardinality is |M|, the matching size. Maximum when Complete.
	Cardinality int64

	// Complete reports whether the matching is maximum. It is false only
	// when a context or Options.Deadline stopped the run early; the mate
	// arrays then hold the valid partial matching of the last consistent
	// state, which ResumeMatch can continue from.
	Complete bool

	// Stats holds the run metrics of the exact algorithm (not including
	// the initializer).
	Stats *Stats

	// CheckpointPath is the newest snapshot written when
	// Options.Checkpoint was set; CheckpointErr records the first snapshot
	// write failure. Checkpointing is best-effort: a write failure is
	// reported here, never by aborting the run.
	CheckpointPath string
	CheckpointErr  error
}

// Match computes a maximum cardinality matching of g. It is
// MatchContext with a background context; Options.Deadline still applies.
func Match(g *Graph, opts Options) (*Result, error) {
	return MatchContext(context.Background(), g, opts)
}

// MatchContext computes a maximum cardinality matching of g under ctx.
//
// Cancellation — an explicit cancel, a context deadline, or Options.Deadline
// — stops the algorithm at its next consistent point: a phase boundary for
// the MS-BFS family and Pothen–Fan, a round boundary for push-relabel. The
// call then returns the partial matching accumulated so far with
// Result.Complete == false and a NIL error: a degraded-but-valid answer, not
// a failure. The partial matching always passes VerifyMatching, contains
// every pair matched by the initializer (matched vertices never become
// unmatched), and can be continued to a maximum matching with ResumeMatch or
// ResumeMatchContext.
//
// A nil Result with a non-nil error signals a real failure: a nil graph,
// unknown options, or a worker panic contained by the parallel runtime
// (returned as *par.PanicError with the worker's stack).
//
// The serial algorithms (HopcroftKarp, SSBFS, SSDFS) check ctx only before
// starting; once launched they run to completion.
func MatchContext(ctx context.Context, g *Graph, opts Options) (*Result, error) {
	if g == nil {
		return nil, fmt.Errorf("graftmatch: nil graph")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	m, err := initialize(g, opts)
	if err != nil {
		return nil, err
	}
	return runMatch(ctx, g, m, opts)
}

// finishMatch dispatches the exact algorithm on an already-initialized
// matching and assembles the Result, translating a cancellation into a
// partial (Complete == false) Result with nil error.
func finishMatch(ctx context.Context, g *Graph, m *matching.Matching, opts Options) (*Result, error) {
	if !opts.Deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, opts.Deadline)
		defer cancel()
	}
	var stats *Stats
	var err error
	switch opts.Algorithm {
	case MSBFSGraft, MSBFS, MSBFSDirOpt:
		co := core.Options{
			Threads:        opts.Threads,
			Alpha:          opts.Alpha,
			TraceFrontiers: opts.TraceFrontiers,
			OnPhase:        opts.OnPhase,
			Recorder:       opts.Recorder,
			Pool:           opts.Pool,
		}
		if opts.Algorithm != MSBFS {
			co.DirectionOptimized = true
		}
		co.Grafting = opts.Algorithm == MSBFSGraft
		stats, err = core.RunCtx(ctx, g, m, co)
	case PothenFan:
		stats, err = pf.RunCtx(ctx, g, m, pf.Options{Threads: opts.Threads, OnPhase: opts.OnPhase, Recorder: opts.Recorder, Pool: opts.Pool})
	case PushRelabel:
		stats, err = pushrelabel.RunCtx(ctx, g, m, pushrelabel.Options{Threads: opts.Threads, OnPhase: opts.OnPhase, Recorder: opts.Recorder, Pool: opts.Pool})
	case HopcroftKarp, SSBFS, SSDFS:
		if err = ctx.Err(); err == nil {
			//lint:ignore proto-exhaustive the enclosing case arm already narrowed to the three serial algorithms; the outer default rejects unknown values
			switch opts.Algorithm {
			case HopcroftKarp:
				stats = hk.Run(g, m)
			case SSBFS:
				stats = ssbfs.Run(g, m)
			default:
				stats = ssdfs.Run(g, m)
			}
		}
	default:
		return nil, fmt.Errorf("graftmatch: unknown algorithm %v", opts.Algorithm)
	}
	if err != nil {
		if !core.IsCancellation(err) {
			return nil, err // contained worker panic, not a cancellation
		}
		if stats == nil { // serial algorithm skipped under an expired context
			stats = &matching.Stats{
				Algorithm:          opts.Algorithm.String(),
				Threads:            1,
				InitialCardinality: m.Cardinality(),
				FinalCardinality:   m.Cardinality(),
			}
		}
	}
	return &Result{
		MateX:       m.MateX,
		MateY:       m.MateY,
		Cardinality: m.Cardinality(),
		Complete:    stats.Complete,
		Stats:       stats,
	}, nil
}

func initialize(g *Graph, opts Options) (*matching.Matching, error) {
	switch opts.Initializer {
	case KarpSipser:
		return matchinit.KarpSipser(g, opts.Seed), nil
	case Greedy:
		return matchinit.Greedy(g), nil
	case ParallelGreedy:
		return matchinit.ParallelGreedy(g, opts.Threads), nil
	case NoInit:
		return matching.New(g.NX(), g.NY()), nil
	case ParallelKarpSipser:
		return matchinit.ParallelKarpSipser(g, opts.Threads), nil
	default:
		return nil, fmt.Errorf("graftmatch: unknown initializer %v", opts.Initializer)
	}
}

// MaximumMatching computes a maximum cardinality matching with the default
// options and returns the mate array of X and the cardinality.
func MaximumMatching(g *Graph) ([]int32, int64, error) {
	res, err := Match(g, Options{})
	if err != nil {
		return nil, 0, err
	}
	return res.MateX, res.Cardinality, nil
}

// VerifyMatching checks that the mate arrays form a valid matching of g:
// mutually consistent, in range, and matched pairs are edges. Partial
// matchings (including those returned by an interrupted MatchContext) pass.
// Malformed input — a nil graph or mate arrays whose lengths do not match
// g's dimensions — yields a descriptive error, never a panic.
func VerifyMatching(g *Graph, mateX, mateY []int32) error {
	if g == nil {
		return fmt.Errorf("graftmatch: nil graph")
	}
	m := &matching.Matching{MateX: mateX, MateY: mateY}
	return m.Verify(g)
}

// VerifyMaximum proves that the matching is valid and of maximum
// cardinality via the König vertex-cover certificate. Like VerifyMatching
// it rejects malformed input with a descriptive error instead of panicking.
func VerifyMaximum(g *Graph, mateX, mateY []int32) error {
	if g == nil {
		return fmt.Errorf("graftmatch: nil graph")
	}
	m := &matching.Matching{MateX: mateX, MateY: mateY}
	return matching.VerifyMaximum(g, m)
}

// BlockTriangularForm computes the Dulmage–Mendelsohn decomposition of g
// (rows = X, columns = Y) using a maximum matching computed with opts.
func BlockTriangularForm(g *Graph, opts Options) (*Decomposition, error) {
	res, err := Match(g, opts)
	if err != nil {
		return nil, err
	}
	m := &matching.Matching{MateX: res.MateX, MateY: res.MateY}
	return dmperm.Decompose(g, m)
}

// ResumeMatch continues a maximum matching computation from an existing
// valid (possibly partial, non-maximal) matching given by mate arrays —
// typically the MateX/MateY of an incomplete Result. The arrays are copied
// and validated first: mismatched lengths or an invalid matching yield a
// descriptive error, never a panic. Because matched vertices stay matched,
// resuming an interrupted run reaches the same cardinality an uninterrupted
// run would have.
func ResumeMatch(g *Graph, mateX, mateY []int32, opts Options) (*Result, error) {
	return ResumeMatchContext(context.Background(), g, mateX, mateY, opts)
}

// ResumeMatchContext is ResumeMatch under a cancellation context, with the
// same partial-result semantics as MatchContext.
func ResumeMatchContext(ctx context.Context, g *Graph, mateX, mateY []int32, opts Options) (*Result, error) {
	if g == nil {
		return nil, fmt.Errorf("graftmatch: nil graph")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	m := &matching.Matching{
		MateX: append([]int32(nil), mateX...),
		MateY: append([]int32(nil), mateY...),
	}
	if err := m.Verify(g); err != nil {
		return nil, fmt.Errorf("graftmatch: invalid initial matching: %w", err)
	}
	opts.Initializer = NoInit // the provided matching replaces the initializer
	return runMatch(ctx, g, m, opts)
}
