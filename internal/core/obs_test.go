package core

import (
	"testing"
	"time"

	"graftmatch/internal/gen"
	"graftmatch/internal/matching"
	"graftmatch/internal/obs"
)

// The stepMetricNames table is indexed by matching.Step: pin the
// correspondence so a reordering of the Step enum cannot silently relabel
// the exported breakdown.
func TestStepMetricNamesMatchSteps(t *testing.T) {
	want := map[matching.Step]string{
		matching.StepTopDown:    "graftmatch_core_step_top_down_ns_total",
		matching.StepBottomUp:   "graftmatch_core_step_bottom_up_ns_total",
		matching.StepAugment:    "graftmatch_core_step_augment_ns_total",
		matching.StepGraft:      "graftmatch_core_step_graft_ns_total",
		matching.StepStatistics: "graftmatch_core_step_statistics_ns_total",
	}
	if len(want) != matching.NumSteps {
		t.Fatalf("test covers %d steps, enum has %d", len(want), matching.NumSteps)
	}
	for step, name := range want {
		if got := stepMetricNames[step]; got != name {
			t.Errorf("stepMetricNames[%s] = %q, want %q", step, got, name)
		}
	}
}

// A run with a live recorder must export counters that agree exactly with
// the final Stats, one phase span per phase, per-step spans, and a status
// snapshot at the final phase — the substrate behind the "/metrics within
// one phase of lag" acceptance criterion.
func TestRecorderMatchesStats(t *testing.T) {
	g := gen.RMAT(11, 8, 0.57, 0.19, 0.19, 42)
	rec := obs.New(obs.Config{TraceCapacity: 4096})
	m := matching.New(g.NX(), g.NY())
	opts := FullOptions(4)
	opts.Recorder = rec
	stats := Run(g, m, opts)
	if !stats.Complete {
		t.Fatal("run incomplete")
	}

	counters := map[string]int64{
		"graftmatch_core_edges_traversed_total":  stats.EdgesTraversed,
		"graftmatch_core_phases_total":           stats.Phases,
		"graftmatch_core_augmenting_paths_total": stats.AugPaths,
		"graftmatch_core_grafts_total":           stats.Grafts,
		"graftmatch_core_rebuilds_total":         stats.Rebuilds,
	}
	for name, want := range counters {
		if got := rec.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %d, want %d (stats)", name, got, want)
		}
	}
	for i := 0; i < matching.NumSteps; i++ {
		got := time.Duration(rec.Counter(stepMetricNames[i], "").Value())
		if got != stats.StepTime[i] {
			t.Errorf("%s = %s, want %s", stepMetricNames[i], got, stats.StepTime[i])
		}
	}
	levels := stats.TopDownLevels + stats.BottomUpLevels
	hist := rec.Registry().Snapshot().Histograms["graftmatch_core_frontier_size"]
	if hist.Count != levels {
		t.Errorf("frontier histogram count = %d, want %d levels", hist.Count, levels)
	}
	if resv := rec.Counter("graftmatch_queue_reservations_total", "").Value(); resv <= 0 {
		t.Errorf("queue reservations = %d, want > 0", resv)
	}

	spans, _ := rec.Tracer().Snapshot()
	var phaseSpans, stepSpans int64
	for _, s := range spans {
		if s.Cat != "core" {
			t.Errorf("unexpected span category %q", s.Cat)
		}
		if s.Name == "phase" {
			phaseSpans++
		} else {
			stepSpans++
		}
	}
	if phaseSpans != stats.Phases {
		t.Errorf("phase spans = %d, want %d", phaseSpans, stats.Phases)
	}
	if stepSpans < levels {
		t.Errorf("step spans = %d, want at least one per BFS level (%d)", stepSpans, levels)
	}

	st := rec.Status()
	if st.Phase != stats.Phases {
		t.Errorf("status phase = %d, want %d", st.Phase, stats.Phases)
	}
	if st.Cardinality != stats.FinalCardinality {
		t.Errorf("status cardinality = %d, want %d", st.Cardinality, stats.FinalCardinality)
	}
	if st.Algorithm != stats.Algorithm {
		t.Errorf("status algorithm = %q, want %q", st.Algorithm, stats.Algorithm)
	}
}

// A recorder must not perturb results: identical runs with and without one
// produce the same cardinality and phase count.
func TestRecorderDoesNotPerturbRun(t *testing.T) {
	g := gen.ER(500, 500, 2000, 7)
	base := matching.New(g.NX(), g.NY())
	baseStats := Run(g, base, FullOptions(2))

	rec := obs.New(obs.Config{})
	m := matching.New(g.NX(), g.NY())
	opts := FullOptions(2)
	opts.Recorder = rec
	stats := Run(g, m, opts)

	if stats.FinalCardinality != baseStats.FinalCardinality {
		t.Errorf("cardinality %d != %d", stats.FinalCardinality, baseStats.FinalCardinality)
	}
}

// TraceFrontiers output is capped per the documented bounds; a normal run
// stays uncapped and untruncated.
func TestTraceFrontiersUntruncatedOnNormalRun(t *testing.T) {
	g := gen.ER(300, 300, 900, 3)
	m := matching.New(g.NX(), g.NY())
	opts := FullOptions(2)
	opts.TraceFrontiers = true
	stats := Run(g, m, opts)
	if len(stats.FrontierTrace) == 0 {
		t.Fatal("no frontier trace recorded")
	}
	if stats.FrontierTraceTruncated {
		t.Error("normal run hit the trace cap")
	}
	if int64(len(stats.FrontierTrace)) != stats.Phases {
		t.Errorf("trace has %d phases, stats has %d", len(stats.FrontierTrace), stats.Phases)
	}
}
