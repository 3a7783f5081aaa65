package core

import (
	"time"

	"graftmatch/internal/matching"
	"graftmatch/internal/obs"
)

// stepMetricNames maps matching.Step values (in declaration order) to the
// per-step cumulative nanosecond counters, the live form of the Fig. 6
// breakdown; TestStepMetricNamesMatchSteps pins the correspondence.
var stepMetricNames = [matching.NumSteps]string{
	"graftmatch_core_step_top_down_ns_total",
	"graftmatch_core_step_bottom_up_ns_total",
	"graftmatch_core_step_augment_ns_total",
	"graftmatch_core_step_graft_ns_total",
	"graftmatch_core_step_statistics_ns_total",
}

// metrics bundles the engine's recorder handles. With a nil Recorder every
// field is nil and every use degrades to a nil check — the zero-overhead
// default pinned by the alloc benchmarks.
type metrics struct {
	rec      *obs.Recorder
	edges    *obs.Counter
	phases   *obs.Counter
	paths    *obs.Counter
	grafts   *obs.Counter
	rebuilds *obs.Counter
	steps    [matching.NumSteps]*obs.Counter
	frontier *obs.Histogram
}

func newMetrics(rec *obs.Recorder) metrics {
	m := metrics{
		rec:      rec,
		edges:    rec.Counter("graftmatch_core_edges_traversed_total", "edges examined during BFS searches (Fig. 1a)"),
		phases:   rec.Counter("graftmatch_core_phases_total", "completed search phases"),
		paths:    rec.Counter("graftmatch_core_augmenting_paths_total", "augmenting paths applied"),
		grafts:   rec.Counter("graftmatch_core_grafts_total", "phases that grafted renewable vertices onto active trees"),
		rebuilds: rec.Counter("graftmatch_core_rebuilds_total", "phases that destroyed all trees and rebuilt from unmatched X"),
		frontier: rec.Histogram("graftmatch_core_frontier_size", "frontier size at each BFS level"),
	}
	for i := range m.steps {
		m.steps[i] = rec.Counter(stepMetricNames[i], "cumulative step time in nanoseconds (Fig. 6)")
	}
	return m
}

// recordStep closes one timed step: it accumulates the Fig. 6 bucket, the
// live per-step counter, and one tracer span. Runs on the driver goroutine
// once per BFS level or phase step — never per element.
func (e *engine) recordStep(step matching.Step, name string, start time.Time, arg int64) {
	d := time.Since(start)
	e.stats.AddStep(step, d)
	e.met.steps[step].Add(int64(d))
	e.met.rec.Span("core", name, start, d, arg)
}
