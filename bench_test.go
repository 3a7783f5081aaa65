// Benchmarks regenerating the paper's evaluation, one benchmark family per
// table/figure (see DESIGN.md §4 for the experiment index). Each benchmark
// measures the cell-level work of its experiment; the formatted rows and
// series the paper prints are produced by cmd/matchbench, which shares the
// same drivers (internal/exps).
//
// Run everything:
//
//	go test -bench=. -benchmem .
package graftmatch_test

import (
	"fmt"
	"testing"

	"graftmatch/internal/bipartite"
	"graftmatch/internal/core"
	"graftmatch/internal/dist"
	"graftmatch/internal/exps"
	"graftmatch/internal/matching"
	"graftmatch/internal/matchinit"
	"graftmatch/internal/par"
)

const benchScale = exps.Small

// benchSuite caches the generated suite across benchmarks.
var benchSuite = exps.Suite(benchScale)

func fullThreads() int { return par.DefaultWorkers() }

// reportMatchStats attaches the paper's counters to a benchmark cell.
func runCell(b *testing.B, algo exps.Algo, g *bipartite.Graph, p int) {
	b.Helper()
	var edges, phases, card int64
	for i := 0; i < b.N; i++ {
		s := exps.Run(algo, g, p)
		edges, phases, card = s.EdgesTraversed, s.Phases, s.FinalCardinality
	}
	b.ReportMetric(float64(edges), "edges")
	b.ReportMetric(float64(phases), "phases")
	b.ReportMetric(float64(card), "cardinality")
}

// BenchmarkTableI has no timed content in the paper (machine table); here
// it measures suite generation, the fixed cost every experiment shares.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exps.Suite(benchScale)
	}
}

// BenchmarkTableII measures the exact matching (with Karp–Sipser) used to
// compute each suite instance's matching number column.
func BenchmarkTableII(b *testing.B) {
	for _, inst := range benchSuite {
		b.Run(inst.Name, func(b *testing.B) {
			runCell(b, exps.AlgoGraft, inst.Graph, fullThreads())
		})
	}
}

// BenchmarkFig1 regenerates Fig. 1(a,b,c): the five serial algorithms on
// the three representative graphs. The edges/phases metrics on each cell
// are the figure's y-values; path lengths print via cmd/matchbench.
func BenchmarkFig1(b *testing.B) {
	algos := []exps.Algo{exps.AlgoSSDFS, exps.AlgoSSBFS, exps.AlgoPF, exps.AlgoMSBFS, exps.AlgoHK}
	for _, inst := range exps.Fig1Suite(benchScale) {
		for _, a := range algos {
			b.Run(inst.Name+"/"+string(a), func(b *testing.B) {
				runCell(b, a, inst.Graph, 1)
			})
		}
	}
}

// BenchmarkFig3 regenerates Fig. 3: MS-BFS-Graft vs PF vs PR at one thread
// and at full threads on every suite graph.
func BenchmarkFig3(b *testing.B) {
	algos := []exps.Algo{exps.AlgoGraft, exps.AlgoPF, exps.AlgoPR}
	for _, inst := range benchSuite {
		for _, a := range algos {
			for _, p := range dedupeInts(1, fullThreads()) {
				b.Run(fmt.Sprintf("%s/%s/p=%d", inst.Name, a, p), func(b *testing.B) {
					runCell(b, a, inst.Graph, p)
				})
			}
		}
	}
}

// dedupeInts drops adjacent duplicates (on a 1-core host the "full thread"
// count equals 1 and would otherwise register duplicate benchmarks).
func dedupeInts(vs ...int) []int {
	out := vs[:0]
	for i, v := range vs {
		if i == 0 || vs[i-1] != v {
			out = append(out, v)
		}
	}
	return out
}

// BenchmarkFig4 regenerates Fig. 4 (search rate): the MTEPS value is
// edges / runtime, both reported per cell for PF and MS-BFS-Graft.
func BenchmarkFig4(b *testing.B) {
	for _, inst := range benchSuite {
		for _, a := range []exps.Algo{exps.AlgoPF, exps.AlgoGraft} {
			b.Run(inst.Name+"/"+string(a), func(b *testing.B) {
				runCell(b, a, inst.Graph, fullThreads())
			})
		}
	}
}

// BenchmarkFig5 regenerates Fig. 5 (strong scaling): MS-BFS-Graft across a
// thread sweep; speedup = serial time / p-thread time across cells.
func BenchmarkFig5(b *testing.B) {
	sweep := []int{1}
	for p := 2; p <= fullThreads(); p *= 2 {
		sweep = append(sweep, p)
	}
	if last := sweep[len(sweep)-1]; last != fullThreads() {
		sweep = append(sweep, fullThreads())
	}
	for _, inst := range benchSuite {
		for _, p := range sweep {
			b.Run(fmt.Sprintf("%s/p=%d", inst.Name, p), func(b *testing.B) {
				runCell(b, exps.AlgoGraft, inst.Graph, p)
			})
		}
	}
}

// BenchmarkFig6 regenerates Fig. 6 (runtime breakdown): per-step shares are
// reported as metrics on each instance's cell.
func BenchmarkFig6(b *testing.B) {
	for _, inst := range benchSuite {
		b.Run(inst.Name, func(b *testing.B) {
			var td, bu, aug, graft float64
			for i := 0; i < b.N; i++ {
				s := exps.Run(exps.AlgoGraft, inst.Graph, fullThreads())
				td = s.StepShare(0) * 100
				bu = s.StepShare(1) * 100
				aug = s.StepShare(2) * 100
				graft = s.StepShare(3) * 100
			}
			b.ReportMetric(td, "topdown%")
			b.ReportMetric(bu, "bottomup%")
			b.ReportMetric(aug, "augment%")
			b.ReportMetric(graft, "graft%")
		})
	}
}

// BenchmarkFig7 regenerates Fig. 7 (performance contributions): the four
// ablation rungs on every suite graph at full threads.
func BenchmarkFig7(b *testing.B) {
	algos := []exps.Algo{exps.AlgoMSBFS, exps.AlgoDirOpt, exps.AlgoGraftTD, exps.AlgoGraft}
	for _, inst := range benchSuite {
		for _, a := range algos {
			b.Run(inst.Name+"/"+string(a), func(b *testing.B) {
				runCell(b, a, inst.Graph, fullThreads())
			})
		}
	}
}

// BenchmarkFig8 regenerates Fig. 8 (frontier evolution): the traced run on
// the coPapersDBLP stand-in; the series itself prints via cmd/matchbench.
func BenchmarkFig8(b *testing.B) {
	inst, ok := exps.ByName(benchScale, "coPapersDBLP")
	if !ok {
		b.Fatal("suite instance missing")
	}
	for _, a := range []exps.Algo{exps.AlgoMSBFS, exps.AlgoGraft} {
		b.Run(string(a), func(b *testing.B) {
			var levels int
			for i := 0; i < b.N; i++ {
				s := exps.RunTraced(a, inst.Graph, fullThreads())
				levels = 0
				for _, phase := range s.FrontierTrace {
					levels += len(phase)
				}
			}
			b.ReportMetric(float64(levels), "levels")
		})
	}
}

// BenchmarkPsi regenerates the §V-B sensitivity measurement workload (one
// timed parallel run per iteration; ψ derives from the b.N samples).
func BenchmarkPsi(b *testing.B) {
	for _, a := range []exps.Algo{exps.AlgoGraft, exps.AlgoPF, exps.AlgoPR} {
		inst, _ := exps.ByName(benchScale, "wikipedia")
		b.Run(string(a), func(b *testing.B) {
			runCell(b, a, inst.Graph, fullThreads())
		})
	}
}

// BenchmarkKarpSipser measures the shared initializer (§II-B) on each class
// representative.
func BenchmarkKarpSipser(b *testing.B) {
	for _, inst := range exps.Fig1Suite(benchScale) {
		b.Run(inst.Name, func(b *testing.B) {
			var card int64
			for i := 0; i < b.N; i++ {
				card = matchinit.KarpSipser(inst.Graph, 42).Cardinality()
			}
			b.ReportMetric(float64(card), "cardinality")
		})
	}
}

// BenchmarkAblationAlpha sweeps the α threshold (DESIGN.md ablation).
func BenchmarkAblationAlpha(b *testing.B) {
	inst, _ := exps.ByName(benchScale, "cit-patents")
	for _, alpha := range []float64{1, 2, 5, 10, 50} {
		b.Run(fmt.Sprintf("alpha=%g", alpha), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := matchinit.Greedy(inst.Graph)
				core.Run(inst.Graph, m, core.Options{
					Threads: fullThreads(), Alpha: alpha,
					DirectionOptimized: true, Grafting: true,
				}.Defaults())
			}
		})
	}
}

// BenchmarkAblationInit compares initializer heuristics feeding the exact
// algorithm.
func BenchmarkAblationInit(b *testing.B) {
	inst, _ := exps.ByName(benchScale, "coPapersDBLP")
	inits := map[string]func() *matching.Matching{
		"none":        func() *matching.Matching { return matching.New(inst.Graph.NX(), inst.Graph.NY()) },
		"greedy":      func() *matching.Matching { return matchinit.Greedy(inst.Graph) },
		"karp-sipser": func() *matching.Matching { return matchinit.KarpSipser(inst.Graph, 42) },
		"parallel-ks": func() *matching.Matching { return matchinit.ParallelKarpSipser(inst.Graph, fullThreads()) },
	}
	for name, mk := range inits {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := mk()
				core.Run(inst.Graph, m, core.FullOptions(fullThreads()))
			}
		})
	}
}

// BenchmarkDistributed measures the BSP distributed-memory simulation (the
// paper's future-work extension) across rank counts.
func BenchmarkDistributed(b *testing.B) {
	inst, _ := exps.ByName(benchScale, "wikipedia")
	for _, k := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("ranks=%d", k), func(b *testing.B) {
			var msgs, steps int64
			for i := 0; i < b.N; i++ {
				m := matchinit.Greedy(inst.Graph)
				s := dist.Run(inst.Graph, m, dist.Options{Ranks: k, Grafting: true})
				msgs, steps = s.Messages, s.Supersteps
			}
			b.ReportMetric(float64(msgs), "messages")
			b.ReportMetric(float64(steps), "supersteps")
		})
	}
}
