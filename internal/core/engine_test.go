package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"graftmatch/internal/bipartite"
	"graftmatch/internal/gen"
	"graftmatch/internal/hk"
	"graftmatch/internal/leaktest"
	"graftmatch/internal/matching"
	"graftmatch/internal/matchinit"
)

func TestMain(m *testing.M) { leaktest.Main(m) }

// fig2Graph reconstructs the worked example of the paper's Fig. 2:
// six vertices per side (x1..x6 → 0..5), the maximal initial matching
// {(x3,y1),(x4,y2),(x5,y3),(x6,y4)}, and unmatched x1, x2, y5, y6. The
// maximum matching is perfect (6).
func fig2Graph() (*bipartite.Graph, *matching.Matching) {
	g := bipartite.MustFromEdges(6, 6, []bipartite.Edge{
		{X: 0, Y: 0}, {X: 0, Y: 1}, // x1: y1, y2
		{X: 1, Y: 1}, {X: 1, Y: 2}, // x2: y2, y3
		{X: 2, Y: 0}, {X: 2, Y: 2}, // x3: y1, y3
		{X: 3, Y: 1}, {X: 3, Y: 3}, // x4: y2, y4
		{X: 4, Y: 2}, {X: 4, Y: 4}, // x5: y3, y5
		{X: 5, Y: 3}, {X: 5, Y: 5}, // x6: y4, y6
	})
	m := matching.New(6, 6)
	m.Match(2, 0)
	m.Match(3, 1)
	m.Match(4, 2)
	m.Match(5, 3)
	return g, m
}

// allOptionCombos enumerates the four feature combinations at the given
// thread counts.
func allOptionCombos(threads ...int) []Options {
	var out []Options
	for _, p := range threads {
		for _, dirOpt := range []bool{false, true} {
			for _, graft := range []bool{false, true} {
				out = append(out, Options{Threads: p, DirectionOptimized: dirOpt, Grafting: graft}.Defaults())
			}
		}
	}
	return out
}

func TestFig2Example(t *testing.T) {
	for _, opts := range allOptionCombos(1, 4) {
		g, m := fig2Graph()
		stats := Run(g, m, opts)
		if m.Cardinality() != 6 {
			t.Fatalf("%s p=%d: cardinality %d, want 6 (perfect)", stats.Algorithm, opts.Threads, m.Cardinality())
		}
		if err := matching.VerifyMaximum(g, m); err != nil {
			t.Fatalf("%s p=%d: %v", stats.Algorithm, opts.Threads, err)
		}
		if stats.InitialCardinality != 4 {
			t.Fatalf("initial cardinality %d, want 4", stats.InitialCardinality)
		}
		if stats.AugPaths != 2 {
			t.Fatalf("augmenting paths %d, want 2 (x1 and x2 both get matched)", stats.AugPaths)
		}
	}
}

func TestFig2SerialTrace(t *testing.T) {
	// Serial MS-BFS (top-down only): phase 1 grows both trees. With our
	// deterministic claim order x1 takes y1 and y2, so both augmenting
	// paths are discovered in the first phase and the run needs exactly
	// two phases (the second finds nothing and terminates).
	g, m := fig2Graph()
	stats := Run(g, m, Options{Threads: 1}.Defaults())
	if stats.Phases != 2 {
		t.Fatalf("phases = %d, want 2", stats.Phases)
	}
	// Paths: (x2,y3,x5,y5) of length 3 and (x1,y2,x4,y4,x6,y6) of length 5.
	if stats.AugPathLen != 8 {
		t.Fatalf("total augmenting path length = %d, want 8", stats.AugPathLen)
	}
}

func TestEmptyAndEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		g    *bipartite.Graph
		want int64
	}{
		{"empty", bipartite.MustFromEdges(0, 0, nil), 0},
		{"no-edges", bipartite.MustFromEdges(5, 5, nil), 0},
		{"single", bipartite.MustFromEdges(1, 1, []bipartite.Edge{{X: 0, Y: 0}}), 1},
		{"isolated-x", bipartite.MustFromEdges(3, 1, []bipartite.Edge{{X: 0, Y: 0}}), 1},
		{"isolated-y", bipartite.MustFromEdges(1, 3, []bipartite.Edge{{X: 0, Y: 2}}), 1},
	}
	for _, c := range cases {
		for _, opts := range allOptionCombos(1, 2) {
			m := matching.New(c.g.NX(), c.g.NY())
			Run(c.g, m, opts)
			if m.Cardinality() != c.want {
				t.Fatalf("%s: cardinality %d, want %d", c.name, m.Cardinality(), c.want)
			}
			if err := matching.VerifyMaximum(c.g, m); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
	}
}

func TestAgainstHopcroftKarp(t *testing.T) {
	graphs := map[string]*bipartite.Graph{
		"er":        gen.ER(300, 300, 1200, 3),
		"er-rect":   gen.ER(500, 100, 1500, 4),
		"grid":      gen.Grid(20, 20),
		"rmat":      gen.RMAT(9, 8, 0.57, 0.19, 0.19, 5),
		"weblike":   gen.WebLike(9, 4, 0.35, 6),
		"deficient": gen.RankDeficient(400, 400, 150, 3, 7),
	}
	for name, g := range graphs {
		ref := matchinit.KarpSipser(g, 1)
		hk.Run(g, ref)
		want := ref.Cardinality()
		for _, opts := range allOptionCombos(1, 4) {
			m := matchinit.KarpSipser(g, 1)
			stats := Run(g, m, opts)
			if m.Cardinality() != want {
				t.Fatalf("%s/%s p=%d: %d, want %d", name, stats.Algorithm, opts.Threads, m.Cardinality(), want)
			}
			if err := matching.VerifyMaximum(g, m); err != nil {
				t.Fatalf("%s/%s: %v", name, stats.Algorithm, err)
			}
		}
	}
}

func TestGraftingTriggersOnLowMatchingGraphs(t *testing.T) {
	// Start from the empty matching: Karp–Sipser solves this family
	// outright, which would leave nothing for the exact phase to do.
	g := gen.WebLike(10, 4, 0.3, 1)
	m := matching.New(g.NX(), g.NY())
	stats := Run(g, m, FullOptions(1))
	if stats.Grafts == 0 {
		t.Fatalf("expected grafting on a low-matching-number graph: %+v", stats)
	}
	if stats.Phases < 3 {
		t.Fatalf("expected a multi-phase run, got %d phases", stats.Phases)
	}
	if err := matching.VerifyMaximum(g, m); err != nil {
		t.Fatal(err)
	}
}

func TestDirectionOptimizationUsesBottomUp(t *testing.T) {
	// Dense-ish graph from an empty matching: the initial frontier is all
	// of X, far larger than unvisitedY/α, so bottom-up must trigger.
	g := gen.ER(500, 500, 5000, 8)
	m := matching.New(g.NX(), g.NY())
	stats := Run(g, m, Options{Threads: 1, DirectionOptimized: true, Grafting: true}.Defaults())
	if stats.BottomUpLevels == 0 {
		t.Fatalf("direction optimization never chose bottom-up: %+v", stats)
	}
	if err := matching.VerifyMaximum(g, m); err != nil {
		t.Fatal(err)
	}
	// And without the flag, never.
	m2 := matching.New(g.NX(), g.NY())
	stats2 := Run(g, m2, Options{Threads: 1}.Defaults())
	if stats2.BottomUpLevels != 0 {
		t.Fatalf("plain MS-BFS used bottom-up %d times", stats2.BottomUpLevels)
	}
}

func TestSerialDeterminism(t *testing.T) {
	g := gen.ER(200, 200, 800, 9)
	m1 := matchinit.KarpSipser(g, 3)
	m2 := m1.Clone()
	s1 := Run(g, m1, Options{Threads: 1, DirectionOptimized: true, Grafting: true}.Defaults())
	s2 := Run(g, m2, Options{Threads: 1, DirectionOptimized: true, Grafting: true}.Defaults())
	for i := range m1.MateX {
		if m1.MateX[i] != m2.MateX[i] {
			t.Fatal("serial runs differ")
		}
	}
	if s1.EdgesTraversed != s2.EdgesTraversed || s1.Phases != s2.Phases {
		t.Fatalf("serial stats differ: %v vs %v", s1, s2)
	}
}

func TestParallelMatchesSerialCardinality(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.ER(150, 140, 600, seed)
		ms := matchinit.KarpSipser(g, seed)
		mp := ms.Clone()
		Run(g, ms, FullOptions(1))
		Run(g, mp, FullOptions(8))
		return ms.Cardinality() == mp.Cardinality() && matching.VerifyMaximum(g, mp) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestFrontierTrace(t *testing.T) {
	g := gen.ER(200, 200, 700, 10)
	m := matching.New(g.NX(), g.NY())
	unmatched := len(m.UnmatchedX(nil))
	stats := Run(g, m, Options{Threads: 1, TraceFrontiers: true}.Defaults())
	if len(stats.FrontierTrace) == 0 {
		t.Fatal("no frontier trace recorded")
	}
	if int(stats.FrontierTrace[0][0]) != unmatched {
		t.Fatalf("first frontier %d, want %d (all unmatched X)", stats.FrontierTrace[0][0], unmatched)
	}
	if int64(len(stats.FrontierTrace)) != stats.Phases {
		t.Fatalf("trace has %d phases, stats say %d", len(stats.FrontierTrace), stats.Phases)
	}
}

func TestStepTimesAccounted(t *testing.T) {
	g := gen.RankDeficient(1500, 1500, 500, 3, 12)
	m := matchinit.KarpSipser(g, 1)
	stats := Run(g, m, FullOptions(2))
	if stats.StepTime[matching.StepTopDown] == 0 && stats.StepTime[matching.StepBottomUp] == 0 {
		t.Fatal("no traversal time recorded")
	}
	if stats.StepTime[matching.StepStatistics] == 0 && stats.Phases > 1 {
		t.Fatal("no census time recorded despite multiple phases")
	}
	if stats.Runtime <= 0 {
		t.Fatal("no runtime recorded")
	}
}

func TestAlgorithmNames(t *testing.T) {
	names := map[string]Options{
		"MS-BFS-Graft":            {DirectionOptimized: true, Grafting: true},
		"MS-BFS":                  {},
		"MS-BFS-DirOpt":           {DirectionOptimized: true},
		"MS-BFS+Graft(no dirOpt)": {Grafting: true},
	}
	for want, opts := range names {
		if got := algorithmName(opts); got != want {
			t.Errorf("algorithmName(%+v) = %q, want %q", opts, got, want)
		}
	}
}

// TestMSBFSMatchesReference: plain MS-BFS (neither grafting nor direction
// optimization, the first rung of the Fig. 7 ablation) reaches the
// Hopcroft–Karp cardinality serial and parallel, under its paper name,
// without grafting or bottom-up levels.
func TestMSBFSMatchesReference(t *testing.T) {
	g := gen.ER(300, 300, 1200, 1)
	ref := matching.New(g.NX(), g.NY())
	hk.Run(g, ref)
	for _, p := range []int{1, 4} {
		m := matchinit.KarpSipser(g, 1)
		stats := Run(g, m, Options{Threads: p}.Defaults())
		if m.Cardinality() != ref.Cardinality() {
			t.Fatalf("p=%d: %d, want %d", p, m.Cardinality(), ref.Cardinality())
		}
		if stats.Algorithm != "MS-BFS" {
			t.Fatalf("algorithm name %q", stats.Algorithm)
		}
		if stats.Grafts != 0 {
			t.Fatalf("plain MS-BFS grafted %d times", stats.Grafts)
		}
		if stats.BottomUpLevels != 0 {
			t.Fatalf("plain MS-BFS used bottom-up")
		}
	}
}

// TestMSBFSDirOptMatchesReference: MS-BFS with direction optimization but
// no grafting (the middle rung of the Fig. 7 ablation) reaches the
// Hopcroft–Karp cardinality under its paper name without grafting.
func TestMSBFSDirOptMatchesReference(t *testing.T) {
	g := gen.ER(400, 400, 4000, 2)
	ref := matching.New(g.NX(), g.NY())
	hk.Run(g, ref)
	m := matching.New(g.NX(), g.NY())
	stats := Run(g, m, Options{Threads: 2, DirectionOptimized: true}.Defaults())
	if m.Cardinality() != ref.Cardinality() {
		t.Fatalf("%d, want %d", m.Cardinality(), ref.Cardinality())
	}
	if stats.Algorithm != "MS-BFS-DirOpt" {
		t.Fatalf("algorithm name %q", stats.Algorithm)
	}
	if stats.Grafts != 0 {
		t.Fatal("dir-opt variant must not graft")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.Defaults()
	if o.Threads < 1 || o.Alpha != DefaultAlpha {
		t.Fatalf("defaults: %+v", o)
	}
	o2 := Options{Threads: 3, Alpha: 7}.Defaults()
	if o2.Threads != 3 || o2.Alpha != 7 {
		t.Fatalf("defaults clobbered explicit values: %+v", o2)
	}
	f := FullOptions(2)
	if !f.DirectionOptimized || !f.Grafting || f.Threads != 2 {
		t.Fatalf("FullOptions: %+v", f)
	}
}

// TestGraftVsRebuildBothExercised makes sure the suite covers both branches
// of Algorithm 7 across a spread of inputs, and pins the serial counters of
// those runs: the graft-or-rebuild choice rests on the census counts, so a
// miscount shows here even when every matching it produces is maximum.
func TestGraftVsRebuildBothExercised(t *testing.T) {
	var grafts, rebuilds int64
	// Grid with Karp–Sipser leaves a near-perfect matching whose few long
	// augmenting paths flip Algorithm 7 between both branches; web-like
	// graphs from scratch exercise grafting heavily.
	g1 := gen.Grid(60, 60)
	m1 := matchinit.KarpSipser(g1, 1)
	s1 := Run(g1, m1, FullOptions(1))
	grafts += s1.Grafts
	rebuilds += s1.Rebuilds
	g2 := gen.WebLike(9, 4, 0.3, 2)
	m2 := matching.New(g2.NX(), g2.NY())
	s2 := Run(g2, m2, FullOptions(1))
	grafts += s2.Grafts
	rebuilds += s2.Rebuilds
	if grafts == 0 {
		t.Error("graft branch never exercised")
	}
	if rebuilds == 0 {
		t.Error("rebuild branch never exercised")
	}
	for i, c := range []struct {
		s    *matching.Stats
		want [5]int64 // phases, edges, grafts, rebuilds, top-down levels
	}{
		{s1, [5]int64{7, 83992, 2, 4, 141}},
		{s2, [5]int64{14, 4763, 13, 0, 24}},
	} {
		got := [5]int64{c.s.Phases, c.s.EdgesTraversed, c.s.Grafts, c.s.Rebuilds, c.s.TopDownLevels}
		if got != c.want {
			t.Errorf("run %d: phases, edges, grafts, rebuilds, top-down levels = %v, want %v", i+1, got, c.want)
		}
	}
}

func TestManyThreadsSmallGraph(t *testing.T) {
	// More workers than vertices must not deadlock or crash.
	g := bipartite.MustFromEdges(2, 2, []bipartite.Edge{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}})
	m := matching.New(2, 2)
	Run(g, m, FullOptions(32))
	if m.Cardinality() != 2 {
		t.Fatalf("cardinality %d, want 2", m.Cardinality())
	}
}

func TestAlphaExtremes(t *testing.T) {
	g := gen.ER(100, 100, 400, 13)
	for _, alpha := range []float64{0.5, 1, 100} {
		m := matchinit.KarpSipser(g, 1)
		stats := Run(g, m, Options{Threads: 2, Alpha: alpha, DirectionOptimized: true, Grafting: true}.Defaults())
		if err := matching.VerifyMaximum(g, m); err != nil {
			t.Fatalf("alpha=%f: %v (%v)", alpha, err, stats)
		}
	}
}

func BenchmarkTopDownOnly(b *testing.B) {
	g := gen.ER(2000, 2000, 10000, 1)
	for i := 0; i < b.N; i++ {
		m := matchinit.KarpSipser(g, 1)
		Run(g, m, Options{Threads: 1}.Defaults())
	}
}

func BenchmarkFullGraft(b *testing.B) {
	g := gen.ER(2000, 2000, 10000, 1)
	for i := 0; i < b.N; i++ {
		m := matchinit.KarpSipser(g, 1)
		Run(g, m, FullOptions(0))
	}
}

func ExampleRun() {
	g := bipartite.MustFromEdges(2, 2, []bipartite.Edge{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}})
	m := matching.New(2, 2)
	Run(g, m, FullOptions(1))
	fmt.Println(m.Cardinality())
	// Output: 2
}

// TestIdempotentRerun: running the engine on an already-maximum matching
// must terminate in one phase with zero augmentations.
func TestIdempotentRerun(t *testing.T) {
	g := gen.ER(200, 200, 800, 30)
	m := matching.New(g.NX(), g.NY())
	Run(g, m, FullOptions(2))
	before := m.Cardinality()
	s := Run(g, m, FullOptions(2))
	if s.Phases != 1 || s.AugPaths != 0 {
		t.Fatalf("rerun did work: %+v", s)
	}
	if m.Cardinality() != before {
		t.Fatal("rerun changed the matching size")
	}
}

// TestAsymmetricShapes: strongly rectangular instances in both directions.
func TestAsymmetricShapes(t *testing.T) {
	for _, c := range []struct{ nx, ny int32 }{{1000, 50}, {50, 1000}, {1, 500}, {500, 1}} {
		g := gen.ER(c.nx, c.ny, int64(c.nx)+int64(c.ny), 31)
		refM := matchinit.KarpSipser(g, 1)
		hk.Run(g, refM)
		for _, opts := range allOptionCombos(1, 4) {
			m := matchinit.KarpSipser(g, 1)
			Run(g, m, opts)
			if m.Cardinality() != refM.Cardinality() {
				t.Fatalf("%dx%d: %d, want %d", c.nx, c.ny, m.Cardinality(), refM.Cardinality())
			}
			if err := matching.VerifyMaximum(g, m); err != nil {
				t.Fatalf("%dx%d: %v", c.nx, c.ny, err)
			}
		}
	}
}

// TestAllFeatureCombos: every option axis together.
func TestAllFeatureCombos(t *testing.T) {
	g := gen.WebLike(8, 5, 0.3, 33)
	refM := matchinit.Greedy(g)
	hk.Run(g, refM)
	for _, p := range []int{1, 3} {
		for _, dirOpt := range []bool{false, true} {
			for _, graft := range []bool{false, true} {
				for _, trace := range []bool{false, true} {
					m := matchinit.Greedy(g)
					s := Run(g, m, Options{
						Threads: p, DirectionOptimized: dirOpt,
						Grafting: graft, TraceFrontiers: trace,
					}.Defaults())
					if m.Cardinality() != refM.Cardinality() {
						t.Fatalf("p=%d dir=%v graft=%v: %d want %d",
							p, dirOpt, graft, m.Cardinality(), refM.Cardinality())
					}
					if trace && int64(len(s.FrontierTrace)) != s.Phases {
						t.Fatalf("trace phases %d != %d", len(s.FrontierTrace), s.Phases)
					}
				}
			}
		}
	}
}

// TestMatchedVerticesStayMatched: augmenting-path algorithms never unmatch
// a matched vertex (the monotonicity the correctness proof relies on).
func TestMatchedVerticesStayMatched(t *testing.T) {
	g := gen.ER(300, 300, 1000, 34)
	m := matchinit.KarpSipser(g, 7)
	matchedX := make([]bool, g.NX())
	for x, y := range m.MateX {
		matchedX[x] = y != none
	}
	Run(g, m, FullOptions(2))
	for x, was := range matchedX {
		if was && m.MateX[x] == none {
			t.Fatalf("vertex %d was unmatched by the engine", x)
		}
	}
}

// TestEdgesTraversedBounded: a phase traverses each direction of each edge
// a bounded number of times; over P phases the total is O(phases * m).
func TestEdgesTraversedBounded(t *testing.T) {
	g := gen.WebLike(9, 5, 0.35, 35)
	m := matching.New(g.NX(), g.NY())
	s := Run(g, m, FullOptions(1))
	bound := (s.Phases + s.Grafts + 1) * g.NumArcs()
	if s.EdgesTraversed > bound {
		t.Fatalf("edges traversed %d exceeds bound %d", s.EdgesTraversed, bound)
	}
}
