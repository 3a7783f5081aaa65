// Package supervise runs matching engines under a watchdog and degrades
// gracefully when one stops making progress. It is engine-agnostic: an
// Engine is any function that computes from seed mate arrays, reports each
// completed phase, and stops at a consistent point when its context is
// cancelled — the contract every context-aware engine in this repository
// already satisfies.
//
// The supervisor detects three failure modes:
//
//   - watchdog: no completed phase within Config.PhaseTimeout — the engine
//     is wedged inside a phase;
//   - stall: Config.StallPhases consecutive phases without cardinality
//     growth — the engine is running but not converging on this instance;
//   - error: the engine returned an error (e.g. a contained worker panic).
//
// On any of them the current engine is cancelled and the run moves down a
// caller-supplied degradation ladder, seeding the next engine with the best
// matching observed so far, so matched edges are never lost (augmenting-path
// algorithms only ever grow a matching). A cancelled engine that fails to
// stop within Config.Grace is abandoned: its goroutine keeps running on
// private state while the supervisor proceeds with the copy taken at the
// last phase boundary.
package supervise

import (
	"context"
	"errors"
	"sync"
	"time"

	"graftmatch/internal/obs"
)

// Progress is one phase-boundary report from a running engine. The mate
// slices alias the engine's live arrays and are only valid for the duration
// of the callback; observers that keep them must copy.
type Progress struct {
	Engine      string
	Phase       int64
	Cardinality int64
	MateX       []int32
	MateY       []int32
}

// Result is what an engine run produced: the final mate arrays (owned by
// the caller after return), the cardinality, whether the matching is
// maximum, and an engine-specific payload (e.g. run statistics) that the
// supervisor carries through to the report untouched.
type Result struct {
	MateX, MateY []int32
	Cardinality  int64
	Complete     bool
	Aux          any
}

// Engine is one rung of the degradation ladder.
type Engine struct {
	// Name identifies the engine in reports and Progress callbacks.
	Name string

	// Serial marks engines that run to completion without phase reports
	// (e.g. Hopcroft–Karp); the watchdog and stall detector are disabled
	// for them, since silence is their normal operation.
	Serial bool

	// Run computes a matching starting from the seed mate arrays. It owns
	// the seed slices (the supervisor passes fresh copies), must invoke
	// onPhase at every consistent phase boundary, and must stop at such a
	// boundary when ctx is cancelled, returning the valid partial state.
	Run func(ctx context.Context, seedX, seedY []int32, onPhase func(Progress)) (Result, error)
}

// Outcome classifies how a rung ended.
type Outcome string

// Rung outcomes.
const (
	Completed Outcome = "completed" // reached a maximum matching
	Watchdog  Outcome = "watchdog"  // no phase within PhaseTimeout
	Stalled   Outcome = "stalled"   // StallPhases phases without growth
	Errored   Outcome = "errored"   // engine returned an error
	Abandoned Outcome = "abandoned" // ignored cancellation past Grace
	Cancelled Outcome = "cancelled" // the outer context stopped the run
)

// RungReport records one engine run.
type RungReport struct {
	Engine      string
	Outcome     Outcome
	Phases      int64
	Cardinality int64
	Err         string // engine error, when Outcome == Errored
}

// Report is the full supervision outcome: every rung attempted, the final
// matching, and which engine produced it.
type Report struct {
	Rungs []RungReport

	// Engine names the rung that completed; empty if none did.
	Engine string

	MateX, MateY []int32
	Cardinality  int64
	Complete     bool
	Aux          any // Aux of the completing rung
}

// Config tunes the supervisor.
type Config struct {
	// PhaseTimeout is the watchdog deadline: maximum wall-clock time
	// between completed phases before the engine is declared wedged.
	// 0 disables the watchdog.
	PhaseTimeout time.Duration

	// StallPhases declares a stall after this many consecutive phases
	// without cardinality growth. 0 disables stall detection.
	StallPhases int

	// Grace bounds how long a cancelled engine may take to stop before it
	// is abandoned; 0 means 10s.
	Grace time.Duration

	// Observe, when non-nil, taps every Progress report (on the engine's
	// driver goroutine, at a consistent phase boundary) — the hook the
	// checkpoint writer attaches to. Reports from an abandoned engine are
	// suppressed.
	Observe func(Progress)

	// Recorder, when non-nil, receives rung-transition counters, rung
	// status updates, and one "supervise" span per rung. The nil
	// default is a no-op.
	Recorder *obs.Recorder
}

func (c Config) withDefaults() Config {
	if c.Grace <= 0 {
		c.Grace = 10 * time.Second
	}
	return c
}

// Run executes the ladder until an engine completes, the outer context is
// cancelled, or the ladder is exhausted. The returned Report always holds
// the best valid matching observed (at worst the seeds). The error is
// non-nil only when every rung failed hard (Errored) and no partial progress
// semantics apply; cancellation of the outer context returns the partial
// report with a nil error, mirroring the facade's partial-result contract.
func Run(ctx context.Context, seedX, seedY []int32, ladder []Engine, cfg Config) (*Report, error) {
	if len(ladder) == 0 {
		return nil, errors.New("supervise: empty ladder")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.withDefaults()

	rep := &Report{
		MateX:       clone32(seedX),
		MateY:       clone32(seedY),
		Cardinality: cardinality(seedX),
	}
	var lastErr error
	for _, eng := range ladder {
		cfg.Recorder.RungStart(eng.Name)
		rungStart := time.Now()
		res, phases, outcome, err := runRung(ctx, eng, rep.MateX, rep.MateY, cfg)
		cfg.Recorder.Span("supervise", "rung:"+eng.Name, rungStart, time.Since(rungStart), res.Cardinality)
		cfg.Recorder.RungEnd(eng.Name, string(outcome))
		rr := RungReport{
			Engine:      eng.Name,
			Outcome:     outcome,
			Phases:      phases,
			Cardinality: rep.Cardinality,
		}
		if err != nil {
			rr.Err = err.Error()
			lastErr = err
		}
		// Adopt the rung's matching when it made progress; a rung that
		// errored before its first phase returns no mates and the seeds
		// stand. Cardinality can only grow under augmentation, so the
		// max is always the newest valid state.
		if res.MateX != nil && res.MateY != nil && res.Cardinality >= rep.Cardinality {
			rep.MateX, rep.MateY, rep.Cardinality = res.MateX, res.MateY, res.Cardinality
			rr.Cardinality = res.Cardinality
		}
		rep.Rungs = append(rep.Rungs, rr)

		if outcome == Completed {
			rep.Engine = eng.Name
			rep.Complete = true
			rep.Aux = res.Aux
			return rep, nil
		}
		if outcome == Cancelled {
			return rep, nil // partial result, facade semantics
		}
		// Any other outcome degrades to the next rung.
	}
	if lastErr != nil && allErrored(rep.Rungs) {
		return rep, lastErr
	}
	return rep, nil
}

func allErrored(rungs []RungReport) bool {
	for _, r := range rungs {
		if r.Outcome != Errored {
			return false
		}
	}
	return true
}

// lastGood is the supervisor's copy of the newest consistent matching,
// updated at every phase boundary on the engine's driver goroutine. After
// detach (abandonment) further stores are dropped, so a zombie engine can
// neither race the next rung nor leak progress reports.
type lastGood struct {
	mu           sync.Mutex
	detached     bool
	mateX, mateY []int32
	card, phase  int64
}

// store copies the progress state; reports false after detach.
func (lg *lastGood) store(p Progress) bool {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	if lg.detached {
		return false
	}
	lg.mateX = append(lg.mateX[:0], p.MateX...)
	lg.mateY = append(lg.mateY[:0], p.MateY...)
	lg.card, lg.phase = p.Cardinality, p.Phase
	return true
}

// detach freezes lg and returns copies of the newest state (nil mates if no
// phase ever completed).
func (lg *lastGood) detach() (mateX, mateY []int32, card, phase int64) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	lg.detached = true
	if lg.mateX == nil {
		return nil, nil, 0, 0
	}
	return clone32(lg.mateX), clone32(lg.mateY), lg.card, lg.phase
}

type doneMsg struct {
	res Result
	err error
}

// runRung supervises one engine run seeded from (seedX, seedY).
func runRung(ctx context.Context, eng Engine, seedX, seedY []int32, cfg Config) (Result, int64, Outcome, error) {
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()

	lg := &lastGood{}
	done := make(chan doneMsg, 1)
	events := make(chan [2]int64, 128)

	// The engine gets private copies of the seeds so that, if this rung is
	// later abandoned, its zombie goroutine can never mutate arrays the
	// supervisor hands to the next rung.
	sx, sy := clone32(seedX), clone32(seedY)
	go func() {
		res, err := eng.Run(rctx, sx, sy, func(p Progress) {
			if !lg.store(p) {
				return // abandoned: suppress the report
			}
			if cfg.Observe != nil {
				cfg.Observe(p)
			}
			select { // drop rather than block the engine; see stall note
			case events <- [2]int64{p.Phase, p.Cardinality}:
			default:
			}
		})
		// done has capacity 1 and this is its only send, so the buffered
		// send always succeeds even when the rung was abandoned and nobody
		// receives; the default arm makes that non-blocking guarantee local
		// instead of an invariant maintained at the make site.
		select {
		case done <- doneMsg{res, err}:
		default:
		}
	}()

	watch := !eng.Serial && cfg.PhaseTimeout > 0
	var timeC <-chan time.Time
	var timer *time.Timer
	if watch {
		timer = time.NewTimer(cfg.PhaseTimeout)
		defer timer.Stop()
		timeC = timer.C
	}

	bestCard := cardinality(seedX)
	stall := 0
	var phases int64
	for {
		select {
		case d := <-done:
			return classify(d, phases, Cancelled)
		case ev := <-events:
			phases = ev[0]
			if watch {
				// Reset the watchdog. Stop may report the timer already
				// fired with the tick still buffered; drain it so Reset
				// starts a clean deadline.
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
				timer.Reset(cfg.PhaseTimeout)
			}
			if !eng.Serial && cfg.StallPhases > 0 {
				if ev[1] > bestCard {
					bestCard, stall = ev[1], 0
				} else if stall++; stall >= cfg.StallPhases {
					cancel()
					return awaitStop(done, lg, cfg.Grace, phases, Stalled)
				}
			}
		case <-timeC:
			cancel()
			return awaitStop(done, lg, cfg.Grace, phases, Watchdog)
		case <-ctx.Done():
			cancel()
			return awaitStop(done, lg, cfg.Grace, phases, Cancelled)
		}
	}
}

// classify turns an engine return into a rung outcome. trip is what the
// supervisor already decided (or Cancelled when the engine stopped on its
// own under a live supervisor).
func classify(d doneMsg, phases int64, trip Outcome) (Result, int64, Outcome, error) {
	switch {
	case d.err != nil:
		return d.res, phases, Errored, d.err
	case d.res.Complete:
		return d.res, phases, Completed, nil
	default:
		return d.res, phases, trip, nil
	}
}

// awaitStop waits for a cancelled engine to drain, up to grace; past that
// the rung is abandoned and the last consistent phase copy stands in for its
// result.
func awaitStop(done chan doneMsg, lg *lastGood, grace time.Duration, phases int64, trip Outcome) (Result, int64, Outcome, error) {
	gt := time.NewTimer(grace)
	defer gt.Stop()
	select {
	case d := <-done:
		return classify(d, phases, trip)
	case <-gt.C:
		mx, my, card, ph := lg.detach()
		if ph > phases {
			phases = ph
		}
		return Result{MateX: mx, MateY: my, Cardinality: card}, phases, Abandoned, nil
	}
}

func clone32(s []int32) []int32 {
	if s == nil {
		return nil
	}
	return append([]int32(nil), s...)
}

// cardinality counts matched entries in a mateX array.
func cardinality(mateX []int32) int64 {
	var c int64
	for _, y := range mateX {
		if y >= 0 {
			c++
		}
	}
	return c
}
