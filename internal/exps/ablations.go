package exps

import (
	"fmt"

	"graftmatch/internal/core"
	"graftmatch/internal/dist"
	"graftmatch/internal/gen"
	"graftmatch/internal/matching"
	"graftmatch/internal/matchinit"
)

// AblationAlpha sweeps the α threshold of MS-BFS-Graft (§III-B: "we found
// that α ≈ 5 performs better") on the three representative graphs,
// reporting runtime and the top-down/bottom-up level split per setting.
func AblationAlpha(cfg Config) *Table {
	cfg = cfg.defaults()
	defer cfg.obsTable("AblationAlpha")()
	alphas := []float64{1, 2, 5, 10, 50}
	t := &Table{
		Title:  fmt.Sprintf("Ablation: α threshold sweep (MS-BFS-Graft, %d threads)", cfg.Threads),
		Header: []string{"graph", "alpha", "time(ms)", "topdown", "bottomup", "grafts", "rebuilds"},
	}
	for _, inst := range Fig1Suite(cfg.Scale) {
		for _, a := range alphas {
			var best float64
			var td, bu, grafts, rebuilds int64
			for r := 0; r < cfg.Reps; r++ {
				m := initFor(inst.Graph)
				s := core.Run(inst.Graph, m, core.Options{
					Threads: cfg.Threads, Alpha: a,
					DirectionOptimized: true, Grafting: true,
					Recorder: cfg.Recorder,
				}.Defaults())
				ms := float64(s.Runtime.Nanoseconds()) / 1e6
				if best == 0 || ms < best {
					best = ms
				}
				td, bu = s.TopDownLevels, s.BottomUpLevels
				grafts, rebuilds = s.Grafts, s.Rebuilds
			}
			t.AddRow(inst.Name, f2(a), f2(best), fI(td), fI(bu), fI(grafts), fI(rebuilds))
		}
	}
	t.AddNote("paper recommendation: α ≈ 5")
	return t
}

// AblationInit compares initializers feeding MS-BFS-Graft: stronger
// initializers shift work out of the exact phase (§II-B: maximal matching
// heuristics initialize maximum matching algorithms).
func AblationInit(cfg Config) *Table {
	cfg = cfg.defaults()
	defer cfg.obsTable("AblationInit")()
	t := &Table{
		Title:  fmt.Sprintf("Ablation: initializer choice before MS-BFS-Graft (%d threads)", cfg.Threads),
		Header: []string{"graph", "init", "init |M|", "final |M|", "exact phases", "exact time(ms)"},
	}
	for _, inst := range Suite(cfg.Scale) {
		for _, c := range []string{"none", "greedy", "karp-sipser", "parallel-ks"} {
			var m *matching.Matching
			switch c {
			case "none":
				m = matching.New(inst.Graph.NX(), inst.Graph.NY())
			case "greedy":
				m = matchinit.Greedy(inst.Graph)
			case "karp-sipser":
				m = matchinit.KarpSipser(inst.Graph, 42)
			case "parallel-ks":
				m = matchinit.ParallelKarpSipser(inst.Graph, cfg.Threads)
			}
			initCard := m.Cardinality()
			fo := core.FullOptions(cfg.Threads)
			fo.Recorder = cfg.Recorder
			s := core.Run(inst.Graph, m, fo)
			t.AddRow(inst.Name, c, fI(initCard), fI(s.FinalCardinality),
				fI(s.Phases), f2(float64(s.Runtime.Nanoseconds())/1e6))
		}
	}
	return t
}

func measureCore(inst Instance, cfg Config, opts core.Options) float64 {
	best := 0.0
	for r := 0; r < cfg.Reps; r++ {
		m := initFor(inst.Graph)
		s := core.Run(inst.Graph, m, opts.Defaults())
		ms := float64(s.Runtime.Nanoseconds()) / 1e6
		if best == 0 || ms < best {
			best = ms
		}
	}
	return best
}

// Distributed reports the distributed-memory simulation (the paper's stated
// future work): cardinality parity with the shared-memory engine plus the
// BSP cost model (supersteps and message volume) across rank counts.
func Distributed(cfg Config) *Table {
	cfg = cfg.defaults()
	defer cfg.obsTable("Distributed")()
	t := &Table{
		Title:  "Extension: distributed-memory MS-BFS-Graft (BSP simulation)",
		Header: []string{"graph", "ranks", "|M|", "phases", "supersteps", "messages", "grafts"},
	}
	for _, inst := range Fig1Suite(cfg.Scale) {
		for _, k := range []int{1, 4, 16} {
			m := initFor(inst.Graph)
			s := dist.Run(inst.Graph, m, dist.Options{Ranks: k, Grafting: true, Recorder: cfg.Recorder})
			t.AddRow(inst.Name, fI(int64(k)), fI(s.FinalCardinality),
				fI(s.Phases), fI(s.Supersteps), fI(s.Messages), fI(s.Grafts))
		}
	}
	t.AddNote("supersteps model network rounds; messages model alltoallv volume")
	return t
}

// Fig7XL runs the Fig. 7 ablation on single larger instances (one per
// class) where the asymptotic contributions emerge — the laptop-scale
// complement to Fig7, recorded in EXPERIMENTS.md.
func Fig7XL(cfg Config) *Table {
	cfg = cfg.defaults()
	defer cfg.obsTable("Fig7XL")()
	t := &Table{
		Title:  fmt.Sprintf("Fig. 7 (XL): contributions on larger single instances (%d threads)", cfg.Threads),
		Header: []string{"graph", "n", "MS-BFS(ms)", "+DirOpt", "+Graft", "+Both"},
	}
	instances := []Instance{
		{Name: "mesh-xl", Class: Scientific, Graph: gen.StripDiagonal(gen.Mesh(300, 300, 201))},
		{Name: "scalefree-xl", Class: ScaleFree, Graph: gen.ScaleFree(200000, 200000, 6, 202)},
		{Name: "weblike-xl", Class: Networks, Graph: gen.WebLike(17, 5, 0.35, 203)},
	}
	for _, inst := range instances {
		base := measureCore(inst, cfg, core.Options{Threads: cfg.Threads})
		dir := measureCore(inst, cfg, core.Options{Threads: cfg.Threads, DirectionOptimized: true})
		gr := measureCore(inst, cfg, core.Options{Threads: cfg.Threads, Grafting: true})
		both := measureCore(inst, cfg, core.Options{Threads: cfg.Threads, DirectionOptimized: true, Grafting: true})
		ratio := func(v float64) string {
			if v <= 0 {
				return "inf"
			}
			return f2(base / v)
		}
		t.AddRow(inst.Name, fI(int64(inst.Graph.NX())), f2(base), ratio(dir), ratio(gr), ratio(both))
	}
	t.AddNote("paper: grafting ≈3x, direction opt ≈1.6x; contributions grow with instance size")
	return t
}
