package graftmatch

import (
	"context"
	"time"

	"graftmatch/internal/matching"
	"graftmatch/internal/supervise"
)

// SuperviseOptions configures the run supervisor: a watchdog on per-phase
// progress, stall detection on cardinality growth, and a graceful
// degradation ladder of engines. When a rung trips, the next engine is
// seeded with the best matching reached so far — augmenting-path algorithms
// only grow a matching, so matched edges are never lost across a fallback.
type SuperviseOptions struct {
	// Ladder is the degradation sequence. Empty means the requested
	// Options.Algorithm followed by PothenFan and HopcroftKarp (duplicates
	// removed) — parallel first, then the serial workhorse that always
	// terminates.
	Ladder []Algorithm

	// PhaseTimeout is the watchdog: maximum wall-clock time between
	// completed phases before the engine is declared wedged and the run
	// degrades. 0 disables the watchdog. Serial algorithms report no
	// phases and are exempt.
	PhaseTimeout time.Duration

	// StallPhases degrades after this many consecutive phases without
	// cardinality growth; 0 disables stall detection.
	StallPhases int
}

// RungReport records one engine run of a supervised run.
type RungReport struct {
	Engine      string // algorithm name, e.g. "MS-BFS-Graft"
	Outcome     string // completed | watchdog | stalled | errored | abandoned | cancelled
	Phases      int64  // phases the rung completed
	Cardinality int64  // |M| when the rung ended
	Err         string // engine error, when Outcome == errored
}

// SupervisionReport is the full outcome of a supervised run.
type SupervisionReport struct {
	// Rungs lists every engine run in order.
	Rungs []RungReport

	// Engine names the rung that completed; empty if none did (the run
	// was cancelled or every engine failed).
	Engine string
}

// defaultLadder is MS-BFS-Graft → Pothen–Fan → Hopcroft–Karp, adjusted so
// the requested algorithm leads.
func defaultLadder(first Algorithm) []Algorithm {
	ladder := []Algorithm{first}
	for _, a := range []Algorithm{PothenFan, HopcroftKarp} {
		if a != first {
			ladder = append(ladder, a)
		}
	}
	return ladder
}

// serialAlgorithm reports whether a runs to completion without phase
// callbacks (so watchdog/stall supervision cannot observe it).
func serialAlgorithm(a Algorithm) bool {
	switch a {
	case HopcroftKarp, SSBFS, SSDFS:
		return true
	default:
		return false
	}
}

// superviseMatch runs the degradation ladder over an initialized matching.
func superviseMatch(ctx context.Context, g *Graph, m *matching.Matching, opts Options) (*Result, error) {
	so := *opts.Supervise
	algs := so.Ladder
	if len(algs) == 0 {
		algs = defaultLadder(opts.Algorithm)
	}

	// The deadline governs the supervised run as a whole, not each rung.
	if !opts.Deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, opts.Deadline)
		defer cancel()
	}

	engines := make([]supervise.Engine, len(algs))
	for i, alg := range algs {
		engOpts := opts
		engOpts.Algorithm = alg
		engOpts.Supervise = nil
		engOpts.Checkpoint = nil // snapshotting rides the Observe hook below
		engOpts.Deadline = time.Time{}
		name := alg.String()
		serial := serialAlgorithm(alg)
		engines[i] = supervise.Engine{
			Name:   name,
			Serial: serial,
			Run: func(rctx context.Context, seedX, seedY []int32, onPhase func(supervise.Progress)) (supervise.Result, error) {
				em := &matching.Matching{MateX: seedX, MateY: seedY}
				ro := engOpts
				ro.OnPhase = func(phase, card int64) {
					onPhase(supervise.Progress{
						Engine: name, Phase: phase, Cardinality: card,
						MateX: em.MateX, MateY: em.MateY,
					})
				}
				res, err := finishMatch(rctx, g, em, ro)
				if err != nil {
					return supervise.Result{}, err
				}
				return supervise.Result{
					MateX: res.MateX, MateY: res.MateY,
					Cardinality: res.Cardinality,
					Complete:    res.Complete,
					Aux:         res.Stats,
				}, nil
			},
		}
	}

	initial := m.Cardinality()
	var w *ckptWriter
	if opts.Checkpoint != nil {
		w = newCkptWriter(g, *opts.Checkpoint, initial, opts.Recorder)
	}
	user := opts.OnPhase
	cfg := supervise.Config{
		PhaseTimeout: so.PhaseTimeout,
		StallPhases:  so.StallPhases,
		Recorder:     opts.Recorder,
		Observe: func(p supervise.Progress) {
			if w != nil {
				w.observe(p.Engine, p.Phase, p.Cardinality, p.MateX, p.MateY)
			}
			if user != nil {
				user(p.Phase, p.Cardinality)
			}
		},
	}

	rep, err := supervise.Run(ctx, m.MateX, m.MateY, engines, cfg)
	if err != nil {
		return nil, err
	}

	stats, _ := rep.Aux.(*Stats)
	if stats == nil {
		// No rung ran to completion with stats (cancelled, abandoned, or
		// all errored before finishing); synthesize the boundary counters.
		stats = &matching.Stats{
			Algorithm:          algs[0].String(),
			Threads:            opts.Threads,
			InitialCardinality: initial,
			FinalCardinality:   rep.Cardinality,
			Complete:           rep.Complete,
		}
	}
	res := &Result{
		MateX:       rep.MateX,
		MateY:       rep.MateY,
		Cardinality: rep.Cardinality,
		Complete:    rep.Complete,
		Stats:       stats,
		Supervision: convertReport(rep),
	}
	if w != nil {
		engine := rep.Engine
		if engine == "" {
			engine = algs[0].String()
		}
		w.final(engine, stats, rep.Cardinality, rep.MateX, rep.MateY)
		res.CheckpointPath, res.CheckpointErr = w.status()
	}
	return res, nil
}

func convertReport(rep *supervise.Report) *SupervisionReport {
	sr := &SupervisionReport{Engine: rep.Engine}
	for _, r := range rep.Rungs {
		sr.Rungs = append(sr.Rungs, RungReport{
			Engine:      r.Engine,
			Outcome:     string(r.Outcome),
			Phases:      r.Phases,
			Cardinality: r.Cardinality,
			Err:         r.Err,
		})
	}
	return sr
}
