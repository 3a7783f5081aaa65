package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"graftmatch"
	"graftmatch/internal/bipartite"
	"graftmatch/internal/core"
	"graftmatch/internal/gen"
	"graftmatch/internal/hk"
	"graftmatch/internal/matching"
	"graftmatch/internal/matchinit"
)

// instance is one generated graph with its oracle cardinality.
type instance struct {
	name string
	g    *bipartite.Graph
	card int64 // maximum cardinality by Hopcroft–Karp, computed at set-up
}

func newInstance(name string, g *bipartite.Graph) instance {
	m := matching.New(g.NX(), g.NY())
	hk.Run(g, m)
	return instance{name: name, g: g, card: m.Cardinality()}
}

// verify checks an answer: complete, of the oracle's cardinality, and
// maximum by matching.VerifyMaximum.
func (in instance) verify(complete bool, m *matching.Matching) error {
	switch {
	case !complete:
		return fmt.Errorf("incomplete result")
	case m.Cardinality() != in.card:
		return fmt.Errorf("cardinality %d, oracle %d", m.Cardinality(), in.card)
	}
	return matching.VerifyMaximum(in.g, m)
}

// seeds derives n per-instance generator seeds from the workload seed.
func seeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63()
	}
	return out
}

// lowmatch: twenty-four graphs of 32k vertices per side with matching number
// about 0.2–0.35 — the regime in which census, graft and augment dominate the
// step time. Solve times differ from seed to seed with the generated inputs:
// with twelve graphs a run's wall and CPU times still moved by an eighth.
func setupLowmatch(cfg config) (bench, error) {
	s := seeds(cfg.seed, 24)
	var insts []instance
	for i := 0; i < len(s); i += 6 {
		insts = append(insts,
			newInstance(fmt.Sprintf("weblike-6-%d", i), gen.WebLike(15, 6, 0.30, s[i])),
			newInstance(fmt.Sprintf("weblike-7-%d", i), gen.WebLike(15, 7, 0.40, s[i+1])),
			newInstance(fmt.Sprintf("weblike-8-%d", i), gen.WebLike(15, 8, 0.35, s[i+2])),
			newInstance(fmt.Sprintf("rmat-8-%d", i), gen.RMAT(15, 8, 0.57, 0.19, 0.19, s[i+3])),
			newInstance(fmt.Sprintf("rmat-6-%d", i), gen.RMAT(15, 6, 0.57, 0.19, 0.19, s[i+4])),
			newInstance(fmt.Sprintf("rmat-5-%d", i), gen.RMAT(15, 5, 0.57, 0.19, 0.19, s[i+5])),
		)
	}
	return newSolveBench("lowmatch", insts)
}

// roadnet: sixteen 240×240 lattices without their diagonal (58k vertices
// per side and ~200k edges each) — traversal-bound, census is a few percent.
// Solve times differ by a quarter between lattices of one size, so a run
// needs many of them for its median to stay put from seed to seed: with
// eight, it still moved by a tenth.
func setupRoadnet(cfg config) (bench, error) {
	s := seeds(cfg.seed, 16)
	var insts []instance
	for i, seed := range s {
		g := gen.StripDiagonal(gen.RoadNet(240, 240, 0.85, seed))
		insts = append(insts, newInstance(fmt.Sprintf("roadnet-240-%d", i), g))
	}
	return newSolveBench("roadnet", insts)
}

// solveBench is a closed loop with one caller: every round solves each
// instance at Threads 1 and at the default thread count, in that order.
type solveBench struct {
	name  string
	insts []instance
	// serial holds each instance's Threads 1 counters from its first solve;
	// later Threads 1 solves must repeat them exactly.
	serial []*matching.Stats
}

// threadCounts alternates the single-thread baseline with the default.
var threadCounts = [2]int{1, 0}

func newSolveBench(name string, insts []instance) (bench, error) {
	b := &solveBench{name: name, insts: insts, serial: make([]*matching.Stats, len(insts))}
	// Warm-up: one facade solve per instance and thread count.
	rep := newReport()
	for i := range insts {
		for _, th := range threadCounts {
			if _, _, _, err := b.facadeSolve(i, th, rep); err != nil {
				return nil, err
			}
		}
	}
	if rep.failed > 0 {
		return nil, fmt.Errorf("%s: warm-up solves failed their checks", name)
	}
	return b, nil
}

func (b *solveBench) close() {}

func solveOptions(th int) graftmatch.Options {
	return graftmatch.Options{Algorithm: graftmatch.MSBFSGraft, Initializer: graftmatch.Greedy, Threads: th}
}

// facadeSolve times one graftmatch.MatchContext call, in wall and process
// CPU time, and checks its answer outside the timed region.
func (b *solveBench) facadeSolve(i, th int, rep *report) (wall, cpu time.Duration, st *matching.Stats, err error) {
	in := b.insts[i]
	cpuStart, start := cpuTime(), time.Now()
	res, err := graftmatch.MatchContext(context.Background(), in.g, solveOptions(th))
	wall, cpu = time.Since(start), cpuTime()-cpuStart
	if err != nil {
		return 0, 0, nil, fmt.Errorf("%s: %w", in.name, err)
	}
	b.check(i, th, res.Complete, res.MateX, res.MateY, res.Stats, rep)
	return wall, cpu, res.Stats, nil
}

// check verifies one answer against the oracle and, at Threads 1, that the
// engine's counters repeat those of the instance's first solve.
func (b *solveBench) check(i, th int, complete bool, mateX, mateY []int32, st *matching.Stats, rep *report) {
	in := b.insts[i]
	switch err := in.verify(complete, &matching.Matching{MateX: mateX, MateY: mateY}); {
	case err != nil:
		rep.fail("%s threads=%d: %v", in.name, th, err)
	case th != 1:
	case b.serial[i] == nil:
		b.serial[i] = st
	case counters(b.serial[i]) != counters(st):
		rep.fail("%s: Threads 1 counters changed: %+v, then %+v", in.name, counters(b.serial[i]), counters(st))
	}
}

type counterSet struct {
	edges, phases, augPaths, augLen, grafts, rebuilds, td, bu int64
}

func counters(s *matching.Stats) counterSet {
	return counterSet{s.EdgesTraversed, s.Phases, s.AugPaths, s.AugPathLen,
		s.Grafts, s.Rebuilds, s.TopDownLevels, s.BottomUpLevels}
}

// tracedSolve runs the facade's path with a span per layer: matchinit.Greedy,
// core.RunCtx, then matching.VerifyMaximum outside the solve time.
func (b *solveBench) tracedSolve(t *tracer, op int64, i, th int, rep *report) (time.Duration, tracedStats, error) {
	in := b.insts[i]
	root := t.reserve()
	opStart := time.Now()
	m := matchinit.Greedy(in.g)
	initEnd := time.Now()
	t.add("matchinit", "Greedy", root, op, opStart, initEnd)
	initCard := m.Cardinality()
	st, err := core.RunCtx(context.Background(), in.g, m, core.Options{Threads: th, DirectionOptimized: true, Grafting: true})
	coreEnd := time.Now()
	t.add("core", "RunCtx", root, op, initEnd, coreEnd)
	if err != nil {
		return 0, tracedStats{}, fmt.Errorf("%s: %w", in.name, err)
	}
	b.check(i, th, st.Complete, m.MateX, m.MateY, st, rep)
	verifyEnd := time.Now()
	t.add("matching", "VerifyMaximum", root, op, coreEnd, verifyEnd)
	t.finish(root, "bench", "solve", op, opStart, verifyEnd)
	return coreEnd.Sub(opStart), tracedStats{
		init:     initEnd.Sub(opStart),
		core:     coreEnd.Sub(initEnd),
		verify:   verifyEnd.Sub(coreEnd),
		initCard: initCard,
		stats:    st,
	}, nil
}

type tracedStats struct {
	init, core, verify time.Duration
	initCard           int64
	stats              *matching.Stats
}

func (b *solveBench) run(cfg config) (*report, error) {
	rep := newReport()
	var t *tracer
	var alloc allocMeter
	var solveMS [2][]float64 // untraced solve times by threadCounts index
	var cpuMS []float64      // CPU time of the untraced solves
	var tracedMS []float64   // traced default-thread solve times
	var traced [2][]tracedStats
	var p2Phases []float64 // per round, summed over the instances
	var verifyMS []float64
	serialSolves := 0

	start := time.Now()
	end := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	// A traced run spends its first half untraced, for the overhead baseline.
	untracedEnd := end
	if cfg.trace {
		t = newTracer()
		untracedEnd = start.Add(end.Sub(start) / 2)
	}
	var op int64
	for time.Now().Before(end) {
		roundPhases := 0.0
		tracing := cfg.trace && !time.Now().Before(untracedEnd)
		for i := range b.insts {
			for k, th := range threadCounts {
				op++
				rep.attempted++
				if tracing {
					d, ts, err := b.tracedSolve(t, op, i, th, rep)
					if err != nil {
						return nil, err
					}
					traced[k] = append(traced[k], ts)
					if th != 1 {
						tracedMS = append(tracedMS, ms(d))
						roundPhases += float64(ts.stats.Phases)
					}
					continue
				}
				// Allocation is measured on the Threads 1 solves only: their
				// work repeats exactly, so the count carries no noise.
				if th == 1 {
					alloc.start()
				}
				d, cpu, st, err := b.facadeSolve(i, th, rep)
				if th == 1 {
					alloc.stop()
					serialSolves++
				}
				if err != nil {
					return nil, err
				}
				solveMS[k] = append(solveMS[k], ms(d))
				cpuMS = append(cpuMS, ms(cpu))
				if th != 1 {
					roundPhases += float64(st.Phases)
				}
			}
		}
		p2Phases = append(p2Phases, roundPhases)
	}
	if len(solveMS[1]) == 0 {
		return nil, fmt.Errorf("%s: no solve finished within %gs", b.name, cfg.seconds)
	}

	def := solveMS[1]
	tail := workloads[b.name].tailPct
	rep.e2e["op_ms_p50"] = quantile(def, 50)
	rep.layer["wall.op_ms_p50"] = quantile(def, 50)
	rep.layer["wall.op_ms_tail"] = quantile(def, tail)
	rep.layer["wall.ops_per_s"] = float64(len(def)) / (sum(def) / 1e3)
	rep.e2e["cpu_ms_per_op"] = mean(cpuMS)
	alloc.record(rep, serialSolves)

	serialP50 := quantile(solveMS[0], 50)
	rep.layer["par.serial_solve_ms_p50"] = serialP50
	rep.layer["par.speedup_p2"] = serialP50 / rep.layer["wall.op_ms_p50"]
	rep.layer["core.phases_p2_min"] = quantile(p2Phases, 0)
	rep.layer["core.phases_p2_median"] = quantile(p2Phases, 50)
	rep.layer["core.phases_p2_max"] = quantile(p2Phases, 100)

	// The exact counters: one Threads 1 solve of every instance, summed.
	var edges, augPaths, edgeNS int64
	for _, st := range b.serial {
		rep.layer["core.phases"] += float64(st.Phases)
		rep.layer["core.grafts"] += float64(st.Grafts)
		rep.layer["core.rebuilds"] += float64(st.Rebuilds)
		rep.layer["core.topdown_levels"] += float64(st.TopDownLevels)
		rep.layer["core.bottomup_levels"] += float64(st.BottomUpLevels)
		edges += st.EdgesTraversed
		augPaths += st.AugPaths
		edgeNS += int64(st.Runtime)
	}
	rep.layer["core.edges"] = float64(edges)
	rep.layer["core.edges_per_augpath"] = float64(edges) / float64(max(augPaths, 1))
	rep.layer["core.mteps"] = float64(edges) / (float64(max(edgeNS, 1)) / 1e9) / 1e6

	if !cfg.trace {
		return rep, nil
	}
	// Layer times come from the traced default-thread solves.
	var initMS, initFrac, coreMS, unaccounted []float64
	var steps [matching.NumSteps][]float64
	for _, ts := range traced[1] {
		initMS = append(initMS, ms(ts.init))
		initFrac = append(initFrac, float64(ts.initCard)/float64(max(ts.stats.FinalCardinality, 1)))
		coreMS = append(coreMS, ms(ts.core))
		var stepSum time.Duration
		for s, d := range ts.stats.StepTime {
			steps[s] = append(steps[s], ms(d))
			stepSum += d
		}
		unaccounted = append(unaccounted, ms(ts.core-stepSum))
	}
	for _, ts := range append(traced[0], traced[1]...) {
		verifyMS = append(verifyMS, ms(ts.verify))
	}
	rep.layer["matchinit.ms"] = mean(initMS)
	rep.layer["matchinit.card_frac"] = mean(initFrac)
	rep.layer["core.ms"] = mean(coreMS)
	rep.layer["core.topdown_ms"] = mean(steps[matching.StepTopDown])
	rep.layer["core.bottomup_ms"] = mean(steps[matching.StepBottomUp])
	rep.layer["core.augment_ms"] = mean(steps[matching.StepAugment])
	rep.layer["core.graft_ms"] = mean(steps[matching.StepGraft])
	rep.layer["core.statistics_ms"] = mean(steps[matching.StepStatistics])
	rep.layer["core.unaccounted_ms"] = mean(unaccounted)
	rep.layer["matching.verify_ms"] = mean(verifyMS)
	rep.layer["bench.trace_overhead_ms"] = quantile(tracedMS, 50) - rep.layer["wall.op_ms_p50"]
	return rep, finishTrace(t, cfg, b.name, len(traced[0])+len(traced[1]), rep)
}
