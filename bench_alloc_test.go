// BenchmarkHotLoopAllocs pins the allocation behavior of the hot phase and
// superstep loops that hotpath-alloc polices: the shared-memory MS-BFS-Graft
// engine (per-phase counter scratch), PF and push-relabel (round-invariant
// parallel bodies and activation lists), and the distributed BSP engine
// (superstep closures). Run with
//
//	go test -bench=HotLoopAllocs -benchmem -run=^$ .
//
// and compare allocs/op; EXPERIMENTS.md records the before/after of the
// hoists on the small-scale RMAT instance.
package graftmatch_test

import (
	"testing"

	"graftmatch/internal/dist"
	"graftmatch/internal/exps"
	"graftmatch/internal/matchinit"
	"graftmatch/internal/obs"
)

func BenchmarkHotLoopAllocs(b *testing.B) {
	var inst *exps.Instance
	for i := range benchSuite {
		if benchSuite[i].Name == "RMAT" {
			inst = &benchSuite[i]
		}
	}
	if inst == nil {
		b.Fatal("RMAT instance missing from suite")
	}
	g := inst.Graph
	base := matchinit.Greedy(g)
	p := fullThreads()

	for _, algo := range []exps.Algo{exps.AlgoGraft, exps.AlgoPF, exps.AlgoPR} {
		b.Run(string(algo), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = exps.Run(algo, g, p)
			}
		})
	}
	// The engines are always instrumented; the plain runs above exercise the
	// nil-recorder (no-op) path. This variant attaches a live recorder so
	// the observability tax is directly comparable — the acceptance bar is
	// allocs/op identical to the nil-recorder run (handles are registered
	// once, phase-boundary recording is alloc-free) and wall time within a
	// few percent.
	b.Run("Graft-live-recorder", func(b *testing.B) {
		b.ReportAllocs()
		rec := obs.New(obs.Config{})
		b.ResetTimer() // recorder construction (the span ring) is one-time, not per-run cost
		for i := 0; i < b.N; i++ {
			_ = exps.RunWith(exps.AlgoGraft, g, p, rec)
		}
	})
	b.Run("Dist", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := base.Clone()
			_ = dist.Run(g, m, dist.Options{Ranks: 4, Grafting: true})
		}
	})
}
