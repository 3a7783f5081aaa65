package supervise

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

const testN = 8

func emptySeeds() ([]int32, []int32) {
	sx := make([]int32, testN)
	sy := make([]int32, testN)
	for i := range sx {
		sx[i], sy[i] = -1, -1
	}
	return sx, sy
}

// completer matches every x to the same-index y, reports one phase, and
// finishes with a maximum matching.
func completer(name string) Engine {
	return Engine{
		Name: name,
		Run: func(ctx context.Context, seedX, seedY []int32, onPhase func(Progress)) (Result, error) {
			for i := range seedX {
				if seedX[i] == -1 && seedY[i] == -1 {
					seedX[i], seedY[i] = int32(i), int32(i)
				}
			}
			card := cardinality(seedX)
			onPhase(Progress{Engine: name, Phase: 1, Cardinality: card, MateX: seedX, MateY: seedY})
			return Result{MateX: seedX, MateY: seedY, Cardinality: card, Complete: true}, nil
		},
	}
}

// silent never reports a phase and only returns once cancelled, handing back
// its (unmodified) seeds as a valid partial state.
func silent(name string) Engine {
	return Engine{
		Name: name,
		Run: func(ctx context.Context, seedX, seedY []int32, onPhase func(Progress)) (Result, error) {
			<-ctx.Done()
			return Result{MateX: seedX, MateY: seedY, Cardinality: cardinality(seedX)}, nil
		},
	}
}

// flatliner reports phases forever without ever growing the matching.
func flatliner(name string) Engine {
	return Engine{
		Name: name,
		Run: func(ctx context.Context, seedX, seedY []int32, onPhase func(Progress)) (Result, error) {
			card := cardinality(seedX)
			for p := int64(1); ; p++ {
				select {
				case <-ctx.Done():
					return Result{MateX: seedX, MateY: seedY, Cardinality: card}, nil
				case <-time.After(time.Millisecond):
				}
				onPhase(Progress{Engine: name, Phase: p, Cardinality: card, MateX: seedX, MateY: seedY})
			}
		},
	}
}

func TestFirstRungCompletes(t *testing.T) {
	sx, sy := emptySeeds()
	rep, err := Run(context.Background(), sx, sy, []Engine{completer("graft"), completer("pf")}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete || rep.Engine != "graft" || rep.Cardinality != testN {
		t.Fatalf("report = %+v, want completion by graft at %d", rep, testN)
	}
	if len(rep.Rungs) != 1 || rep.Rungs[0].Outcome != Completed {
		t.Fatalf("rungs = %+v, want single Completed", rep.Rungs)
	}
}

func TestWatchdogDegrades(t *testing.T) {
	sx, sy := emptySeeds()
	rep, err := Run(context.Background(), sx, sy,
		[]Engine{silent("wedged"), completer("fallback")},
		Config{PhaseTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete || rep.Engine != "fallback" {
		t.Fatalf("report = %+v, want completion by fallback", rep)
	}
	if len(rep.Rungs) != 2 || rep.Rungs[0].Outcome != Watchdog {
		t.Fatalf("rungs = %+v, want [Watchdog, Completed]", rep.Rungs)
	}
}

func TestStallDegrades(t *testing.T) {
	sx, sy := emptySeeds()
	rep, err := Run(context.Background(), sx, sy,
		[]Engine{flatliner("spinning"), completer("fallback")},
		Config{StallPhases: 3, PhaseTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete || rep.Engine != "fallback" {
		t.Fatalf("report = %+v, want completion by fallback", rep)
	}
	if rep.Rungs[0].Outcome != Stalled {
		t.Fatalf("rung 0 = %+v, want Stalled", rep.Rungs[0])
	}
}

// TestAbandonedKeepsLastGood wedges an engine that ignores cancellation
// after reporting partial progress: the supervisor must abandon it at the
// grace deadline and seed the fallback from the last phase-boundary copy.
func TestAbandonedKeepsLastGood(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	zombie := Engine{
		Name: "zombie",
		Run: func(ctx context.Context, seedX, seedY []int32, onPhase func(Progress)) (Result, error) {
			seedX[0], seedY[0] = 0, 0 // one real match before wedging
			onPhase(Progress{Engine: "zombie", Phase: 1, Cardinality: 1, MateX: seedX, MateY: seedY})
			<-release // ignores ctx entirely
			return Result{}, nil
		},
	}
	var mu sync.Mutex
	var seen []string
	fallback := Engine{
		Name: "fallback",
		Run: func(ctx context.Context, seedX, seedY []int32, onPhase func(Progress)) (Result, error) {
			mu.Lock()
			seen = append(seen, fmt.Sprintf("seed0=%d", seedX[0]))
			mu.Unlock()
			return completer("fallback").Run(ctx, seedX, seedY, onPhase)
		},
	}
	sx, sy := emptySeeds()
	rep, err := Run(context.Background(), sx, sy, []Engine{zombie, fallback},
		Config{PhaseTimeout: 30 * time.Millisecond, Grace: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rungs[0].Outcome != Abandoned {
		t.Fatalf("rung 0 = %+v, want Abandoned", rep.Rungs[0])
	}
	if rep.Rungs[0].Cardinality != 1 {
		t.Fatalf("abandoned rung kept cardinality %d, want lastGood 1", rep.Rungs[0].Cardinality)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 1 || seen[0] != "seed0=0" {
		t.Fatalf("fallback seeds = %v, want the zombie's matched pair preserved", seen)
	}
	if !rep.Complete || rep.Cardinality != testN {
		t.Fatalf("report = %+v, want completion at %d", rep, testN)
	}
}

// TestAbandonedObserverSilenced asserts a detached zombie's later phase
// reports never reach Observe.
func TestAbandonedObserverSilenced(t *testing.T) {
	release := make(chan struct{})
	reported := make(chan struct{})
	zombie := Engine{
		Name: "zombie",
		Run: func(ctx context.Context, seedX, seedY []int32, onPhase func(Progress)) (Result, error) {
			<-release // wedge immediately, ignoring ctx
			onPhase(Progress{Engine: "zombie", Phase: 2, Cardinality: 99, MateX: seedX, MateY: seedY})
			close(reported)
			return Result{}, nil
		},
	}
	var mu sync.Mutex
	var observed []string
	cfg := Config{
		PhaseTimeout: 20 * time.Millisecond,
		Grace:        20 * time.Millisecond,
		Observe: func(p Progress) {
			mu.Lock()
			observed = append(observed, p.Engine)
			mu.Unlock()
		},
	}
	sx, sy := emptySeeds()
	rep, err := Run(context.Background(), sx, sy, []Engine{zombie, completer("fallback")}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	<-reported // let the zombie fire its late report before checking
	if !rep.Complete {
		t.Fatalf("report = %+v, want completion", rep)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, e := range observed {
		if e == "zombie" {
			t.Fatalf("observed a report from the abandoned engine: %v", observed)
		}
	}
}

func TestHardErrorDegradesWithoutRetry(t *testing.T) {
	var calls int
	broken := Engine{
		Name: "broken",
		Run: func(ctx context.Context, seedX, seedY []int32, onPhase func(Progress)) (Result, error) {
			calls++
			return Result{}, errors.New("worker panic: boom")
		},
	}
	sx, sy := emptySeeds()
	rep, err := Run(context.Background(), sx, sy, []Engine{broken, completer("fallback")}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("hard error retried %d times, want 1 call", calls)
	}
	if !rep.Complete || rep.Engine != "fallback" {
		t.Fatalf("report = %+v, want fallback completion", rep)
	}
	if rep.Rungs[0].Err == "" {
		t.Fatal("errored rung did not record the error string")
	}
}

func TestAllRungsErroredReturnsError(t *testing.T) {
	broken := func(name string) Engine {
		return Engine{
			Name: name,
			Run: func(ctx context.Context, seedX, seedY []int32, onPhase func(Progress)) (Result, error) {
				return Result{}, fmt.Errorf("%s: dead", name)
			},
		}
	}
	sx, sy := emptySeeds()
	rep, err := Run(context.Background(), sx, sy, []Engine{broken("a"), broken("b")}, Config{})
	if err == nil {
		t.Fatal("want the last hard error when every rung fails")
	}
	if rep == nil || rep.Complete {
		t.Fatalf("report = %+v, want incomplete partial report alongside the error", rep)
	}
	if rep.Cardinality != 0 {
		t.Fatalf("cardinality = %d, want the untouched seeds", rep.Cardinality)
	}
}

func TestOuterCancelReturnsPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	slow := Engine{
		Name: "slow",
		Run: func(rctx context.Context, seedX, seedY []int32, onPhase func(Progress)) (Result, error) {
			seedX[0], seedY[0] = 0, 0
			onPhase(Progress{Engine: "slow", Phase: 1, Cardinality: 1, MateX: seedX, MateY: seedY})
			close(started)
			<-rctx.Done()
			return Result{MateX: seedX, MateY: seedY, Cardinality: 1}, nil
		},
	}
	go func() {
		<-started
		cancel()
	}()
	sx, sy := emptySeeds()
	rep, err := Run(ctx, sx, sy, []Engine{slow, completer("never")}, Config{})
	if err != nil {
		t.Fatalf("outer cancellation must return a partial report with nil error, got %v", err)
	}
	if rep.Complete {
		t.Fatal("cancelled run reported Complete")
	}
	if rep.Cardinality != 1 {
		t.Fatalf("cardinality = %d, want the partial 1", rep.Cardinality)
	}
	if last := rep.Rungs[len(rep.Rungs)-1]; last.Outcome != Cancelled {
		t.Fatalf("last rung = %+v, want Cancelled", last)
	}
	if len(rep.Rungs) != 1 {
		t.Fatalf("ladder continued after outer cancellation: %+v", rep.Rungs)
	}
}

func TestSerialEngineSkipsWatchdog(t *testing.T) {
	slowSerial := Engine{
		Name:   "serial",
		Serial: true,
		Run: func(ctx context.Context, seedX, seedY []int32, onPhase func(Progress)) (Result, error) {
			time.Sleep(80 * time.Millisecond) // longer than PhaseTimeout
			return completer("serial").Run(ctx, seedX, seedY, onPhase)
		},
	}
	sx, sy := emptySeeds()
	rep, err := Run(context.Background(), sx, sy, []Engine{slowSerial},
		Config{PhaseTimeout: 20 * time.Millisecond, StallPhases: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete || rep.Rungs[0].Outcome != Completed {
		t.Fatalf("report = %+v, want serial engine to finish untripped", rep)
	}
}

func TestEmptyLadderErrors(t *testing.T) {
	sx, sy := emptySeeds()
	if _, err := Run(context.Background(), sx, sy, nil, Config{}); err == nil {
		t.Fatal("empty ladder must error")
	}
}

func TestObserveSeesProgress(t *testing.T) {
	var mu sync.Mutex
	var cards []int64
	cfg := Config{Observe: func(p Progress) {
		mu.Lock()
		cards = append(cards, p.Cardinality)
		mu.Unlock()
	}}
	sx, sy := emptySeeds()
	if _, err := Run(context.Background(), sx, sy, []Engine{completer("e")}, cfg); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(cards) != 1 || cards[0] != testN {
		t.Fatalf("observed = %v, want one report at %d", cards, testN)
	}
}

// TestGraceDrainDeliversResult pins the done-channel handoff: an engine
// that stops after cancellation but inside the grace window must still get
// its result to the supervisor. The engine-side send is deliberately
// non-blocking on a capacity-1 channel — a cancellation-aware send would
// race awaitStop's post-cancel drain and could drop the result this test
// requires.
func TestGraceDrainDeliversResult(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	slow := Engine{
		Name: "slow",
		Run: func(rctx context.Context, seedX, seedY []int32, onPhase func(Progress)) (Result, error) {
			seedX[0], seedY[0] = 0, 0
			onPhase(Progress{Engine: "slow", Phase: 1, Cardinality: 1, MateX: seedX, MateY: seedY})
			close(started)
			<-rctx.Done()
			time.Sleep(20 * time.Millisecond) // drain work, well inside grace
			return Result{MateX: seedX, MateY: seedY, Cardinality: 1}, nil
		},
	}
	go func() {
		<-started
		cancel()
	}()
	sx, sy := emptySeeds()
	rep, err := Run(ctx, sx, sy, []Engine{slow}, Config{Grace: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	last := rep.Rungs[len(rep.Rungs)-1]
	if last.Outcome != Cancelled {
		t.Fatalf("rung outcome = %s, want Cancelled (the grace drain must receive the engine's own result, not abandon it)", last.Outcome)
	}
	if rep.Cardinality != 1 {
		t.Fatalf("cardinality = %d, want the engine-delivered 1", rep.Cardinality)
	}
}
