package graftmatch

import (
	"context"
	"fmt"
	"time"

	"graftmatch/internal/checkpoint"
	"graftmatch/internal/matching"
)

// CheckpointOptions enables crash-safe snapshotting of run state. Snapshots
// are emitted at phase boundaries (where the mate arrays are a valid partial
// matching), written atomically via temp-file + rename, CRC-checksummed, and
// fingerprinted against the graph so a restore can never silently apply a
// snapshot to the wrong instance. Serial algorithms (HopcroftKarp, SSBFS,
// SSDFS) report no phases, so only their final snapshot is written.
type CheckpointOptions struct {
	// Dir is the snapshot directory, created if missing.
	Dir string

	// Interval is the minimum wall-clock time between mid-run snapshots;
	// 0 writes one at every phase boundary.
	Interval time.Duration

	// Keep bounds the snapshots retained in Dir (older ones are pruned);
	// 0 means 3.
	Keep int
}

// ErrNoCheckpoint is returned by LoadCheckpoint when the directory holds no
// snapshots at all — the caller should start fresh. Damaged or
// wrong-graph snapshots yield typed errors instead, so "nothing to resume"
// and "everything to resume is broken" stay distinguishable.
var ErrNoCheckpoint = checkpoint.ErrNoSnapshot

// CheckpointState is a restored snapshot: a valid partial matching of the
// graph it was loaded for, plus where the producing run stopped. Feed MateX
// and MateY to ResumeMatch to continue the computation.
type CheckpointState struct {
	MateX, MateY []int32
	Engine       string // algorithm that produced the snapshot
	Phase        int64
	Cardinality  int64
	Path         string // the snapshot file chosen
}

// LoadCheckpoint restores the best snapshot for g from dir: the highest-
// cardinality intact snapshot whose graph fingerprint matches g (cardinality
// is monotone across restarts, so that is also the newest state). Corrupt or
// mismatched files are skipped when an intact one exists, returned as typed
// errors (*checkpoint.CorruptError, *checkpoint.MismatchError via errors.As)
// when nothing survives, and an empty directory yields ErrNoCheckpoint.
func LoadCheckpoint(g *Graph, dir string) (*CheckpointState, error) {
	if g == nil {
		return nil, fmt.Errorf("graftmatch: nil graph")
	}
	s, path, err := checkpoint.LoadLatest(dir, checkpoint.GraphFingerprint(g))
	if err != nil {
		return nil, err
	}
	// The fingerprint ties the snapshot to g's exact adjacency, but verify
	// edge membership anyway: a restore must never hand out mates that are
	// not edges.
	if err := VerifyMatching(g, s.MateX, s.MateY); err != nil {
		return nil, &checkpoint.CorruptError{Path: path, Reason: err.Error()}
	}
	return &CheckpointState{
		MateX:       s.MateX,
		MateY:       s.MateY,
		Engine:      s.Engine,
		Phase:       s.Phase,
		Cardinality: s.Cardinality,
		Path:        path,
	}, nil
}

// ckptWriter emits snapshots from phase callbacks. observe runs from
// OnPhase on the engine's calling goroutine, and final and status run after
// the engine returns, so the writer is never used concurrently.
type ckptWriter struct {
	dir         string
	interval    time.Duration
	keep        int
	fp          checkpoint.Fingerprint
	initialCard int64
	start       time.Time
	rec         *Recorder // nil-safe observability tap

	lastWrite time.Time
	lastPath  string
	firstErr  error
}

func newCkptWriter(g *Graph, co CheckpointOptions, initialCard int64, rec *Recorder) *ckptWriter {
	keep := co.Keep
	if keep <= 0 {
		keep = 3
	}
	return &ckptWriter{
		dir:         co.Dir,
		interval:    co.Interval,
		keep:        keep,
		fp:          checkpoint.GraphFingerprint(g),
		initialCard: initialCard,
		start:       time.Now(),
		rec:         rec,
	}
}

// observe writes a mid-run snapshot at a phase boundary, rate-limited by the
// configured interval.
func (w *ckptWriter) observe(engine string, phase, card int64, mateX, mateY []int32) {
	if w.interval > 0 && !w.lastWrite.IsZero() && time.Since(w.lastWrite) < w.interval {
		return
	}
	w.write(engine, phase, card, mateX, mateY, nil)
}

// final writes the end-of-run snapshot carrying the engine's full counters.
// It bypasses the rate limit.
func (w *ckptWriter) final(engine string, stats *Stats, card int64, mateX, mateY []int32) {
	var phase int64
	if stats != nil {
		phase = stats.Phases
	}
	w.write(engine, phase, card, mateX, mateY, stats)
}

func (w *ckptWriter) write(engine string, phase, card int64, mateX, mateY []int32, stats *Stats) {
	s := &checkpoint.Snapshot{
		Fingerprint: w.fp,
		Engine:      engine,
		Phase:       phase,
		Cardinality: card,
		Stats: checkpoint.CumulativeStats{
			Phases:             phase,
			InitialCardinality: w.initialCard,
			Runtime:            time.Since(w.start),
		},
		MateX: mateX,
		MateY: mateY,
	}
	if stats != nil {
		s.Stats = checkpoint.CumulativeStats{
			Phases:             stats.Phases,
			EdgesTraversed:     stats.EdgesTraversed,
			AugPaths:           stats.AugPaths,
			AugPathLen:         stats.AugPathLen,
			InitialCardinality: stats.InitialCardinality,
			Grafts:             stats.Grafts,
			Rebuilds:           stats.Rebuilds,
			Runtime:            stats.Runtime,
		}
	}
	saveStart := time.Now()
	path, io, err := checkpoint.SaveMeasured(w.dir, s)
	if err != nil {
		if w.firstErr == nil {
			w.firstErr = err
		}
		return
	}
	w.rec.CheckpointSaved(path, io.Bytes, io.Fsync)
	w.rec.Span("checkpoint", "save", saveStart, time.Since(saveStart), io.Bytes)
	// Retention is best-effort: a failed prune must not disable
	// checkpointing, and the next successful prune catches up.
	_ = checkpoint.Prune(w.dir, w.keep)
	w.lastWrite = time.Now()
	w.lastPath = path
}

// status returns the newest snapshot path and the first write failure.
func (w *ckptWriter) status() (string, error) {
	return w.lastPath, w.firstErr
}

// runMatch runs the engine on an initialized matching, with checkpointing
// when requested. The recorder's run-status lifecycle brackets the run, so
// /status reflects it from start to finish.
func runMatch(ctx context.Context, g *Graph, m *matching.Matching, opts Options) (*Result, error) {
	rec := opts.Recorder
	rec.SetGraph(int64(g.NX()), int64(g.NY()), g.NumEdges())
	rec.RunStart(opts.Algorithm.String())
	res, err := runMatchLayers(ctx, g, m, opts)
	if err != nil {
		rec.RunDone(false, m.Cardinality())
		return nil, err
	}
	rec.RunDone(res.Complete, res.Cardinality)
	return res, nil
}

func runMatchLayers(ctx context.Context, g *Graph, m *matching.Matching, opts Options) (*Result, error) {
	if opts.Checkpoint == nil {
		return finishMatch(ctx, g, m, opts)
	}
	w := newCkptWriter(g, *opts.Checkpoint, m.Cardinality(), opts.Recorder)
	engine := opts.Algorithm.String()
	user := opts.OnPhase
	opts.OnPhase = func(phase, card int64) {
		// Engines fire this on the driver goroutine at a consistent phase
		// boundary, so reading the live mate arrays here is safe.
		w.observe(engine, phase, card, m.MateX, m.MateY)
		if user != nil {
			user(phase, card)
		}
	}
	res, err := finishMatch(ctx, g, m, opts)
	if err != nil {
		return nil, err
	}
	w.final(engine, res.Stats, res.Cardinality, res.MateX, res.MateY)
	res.CheckpointPath, res.CheckpointErr = w.status()
	return res, nil
}
