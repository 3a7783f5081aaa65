package exps

import (
	"fmt"
	"math"
	"time"

	"graftmatch/internal/bipartite"
	"graftmatch/internal/core"
	"graftmatch/internal/hk"
	"graftmatch/internal/matching"
	"graftmatch/internal/matchinit"
	"graftmatch/internal/obs"
	"graftmatch/internal/pf"
	"graftmatch/internal/pushrelabel"
	"graftmatch/internal/ssbfs"
	"graftmatch/internal/ssdfs"
)

// Algo names an algorithm in experiment tables.
type Algo string

// Experiment algorithm identifiers (the paper's names).
const (
	AlgoGraft   Algo = "MS-BFS-Graft"
	AlgoMSBFS   Algo = "MS-BFS"
	AlgoDirOpt  Algo = "MS-BFS-DirOpt"
	AlgoGraftTD Algo = "MS-BFS-GraftOnly" // grafting without direction opt
	AlgoPF      Algo = "PF"
	AlgoPR      Algo = "PR"
	AlgoHK      Algo = "HK"
	AlgoSSBFS   Algo = "SS-BFS"
	AlgoSSDFS   Algo = "SS-DFS"
	defaultReps      = 3
)

// initFor produces the experiment initializer matching. The paper uses
// Karp–Sipser; on our synthetic stand-ins Karp–Sipser is *optimal* (its
// degree-1 rule cascades through the whole graph), which would leave the
// exact algorithms nothing to do and collapse every comparison. The plain
// greedy heuristic is an equally valid maximal-matching initializer
// (§II-B) that leaves the same kind of 2–20% gap the paper's real inputs
// leave after Karp–Sipser, so experiments use it; the library default
// (facade Options) remains Karp–Sipser. Documented in DESIGN.md §3.
func initFor(g *bipartite.Graph) *matching.Matching {
	return matchinit.Greedy(g)
}

// Run executes algo on g with p threads, greedy-initialized (see initFor),
// and returns the run statistics.
func Run(algo Algo, g *bipartite.Graph, p int) *matching.Stats {
	return runOn(algo, g, initFor(g), p, nil)
}

// RunWith is Run with a live observability recorder threaded into the
// engines that support one (MS-BFS family, PF, PR); rec may be nil.
func RunWith(algo Algo, g *bipartite.Graph, p int, rec *obs.Recorder) *matching.Stats {
	return runOn(algo, g, initFor(g), p, rec)
}

// RunTraced is Run with frontier tracing enabled (Fig. 8); only meaningful
// for the MS-BFS family.
func RunTraced(algo Algo, g *bipartite.Graph, p int) *matching.Stats {
	m := initFor(g)
	switch algo {
	case AlgoGraft:
		return core.Run(g, m, core.Options{Threads: p, DirectionOptimized: true, Grafting: true, TraceFrontiers: true}.Defaults())
	case AlgoMSBFS:
		return core.Run(g, m, core.Options{Threads: p, TraceFrontiers: true}.Defaults())
	default:
		return runOn(algo, g, m, p, nil)
	}
}

func runOn(algo Algo, g *bipartite.Graph, m *matching.Matching, p int, rec *obs.Recorder) *matching.Stats {
	switch algo {
	case AlgoGraft:
		opts := core.FullOptions(p)
		opts.Recorder = rec
		return core.Run(g, m, opts)
	case AlgoMSBFS:
		return core.Run(g, m, core.Options{Threads: p, Recorder: rec}.Defaults())
	case AlgoDirOpt:
		return core.Run(g, m, core.Options{Threads: p, DirectionOptimized: true, Recorder: rec}.Defaults())
	case AlgoGraftTD:
		return core.Run(g, m, core.Options{Threads: p, Grafting: true, Recorder: rec}.Defaults())
	case AlgoPF:
		s, err := pf.RunCtx(nil, g, m, pf.Options{Threads: p, Recorder: rec})
		if err != nil {
			panic(err) //lint:ignore err-checked background context: only a contained worker panic can surface here, and re-raising matches pf.Run
		}
		return s
	case AlgoPR:
		return pushrelabel.Run(g, m, pushrelabel.Options{Threads: p, Recorder: rec})
	case AlgoHK:
		return hk.Run(g, m)
	case AlgoSSBFS:
		return ssbfs.Run(g, m)
	case AlgoSSDFS:
		return ssdfs.Run(g, m)
	default:
		panic(fmt.Sprintf("exps: unknown algorithm %q", algo)) //lint:ignore err-checked experiment-driver invariant: algorithm names come from the fixed Algos table
	}
}

// Timing summarizes repeated runs of one (algorithm, graph, threads) cell.
type Timing struct {
	Algo    Algo
	Threads int
	Reps    int

	Mean   time.Duration
	Stddev time.Duration
	Min    time.Duration
	Max    time.Duration

	// Last holds the stats of the final repetition (counters are
	// deterministic for serial runs).
	Last *matching.Stats
}

// Sensitivity returns ψ = σ/μ in percent (§V-B).
func (t Timing) Sensitivity() float64 {
	if t.Mean <= 0 {
		return 0
	}
	return float64(t.Stddev) / float64(t.Mean) * 100
}

// Measure runs algo on g reps times (re-initialized each run so
// every repetition does identical work) and aggregates wall-clock times.
func Measure(algo Algo, g *bipartite.Graph, p, reps int) Timing {
	if reps <= 0 {
		reps = defaultReps
	}
	times := make([]time.Duration, 0, reps)
	var last *matching.Stats
	for r := 0; r < reps; r++ {
		m := initFor(g)
		start := time.Now()
		// Timed cells run unrecorded: the measurement should not include
		// even the (tiny) recorder tax.
		last = runOn(algo, g, m, p, nil)
		times = append(times, time.Since(start))
	}
	tm := Timing{Algo: algo, Threads: p, Reps: reps, Last: last}
	tm.Min, tm.Max = times[0], times[0]
	var sum float64
	for _, d := range times {
		sum += float64(d)
		if d < tm.Min {
			tm.Min = d
		}
		if d > tm.Max {
			tm.Max = d
		}
	}
	mean := sum / float64(len(times))
	tm.Mean = time.Duration(mean)
	var varsum float64
	for _, d := range times {
		diff := float64(d) - mean
		varsum += diff * diff
	}
	tm.Stddev = time.Duration(math.Sqrt(varsum / float64(len(times))))
	return tm
}
