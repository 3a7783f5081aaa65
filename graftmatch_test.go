package graftmatch

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"graftmatch/internal/exps"
	"graftmatch/internal/gen"
	"graftmatch/internal/leaktest"
	"graftmatch/internal/reference"
)

func TestMain(m *testing.M) { leaktest.Main(m) }

// allAlgorithms lists every exact algorithm for cross-checking.
var allAlgorithms = []Algorithm{
	MSBFSGraft, MSBFS, MSBFSDirOpt, PothenFan, PushRelabel, HopcroftKarp, SSBFS, SSDFS,
}

// testGraphs returns a battery of small-to-medium instances covering all
// three classes of the paper plus edge cases.
func testGraphs(tb testing.TB) map[string]*Graph {
	tb.Helper()
	return map[string]*Graph{
		"empty":         MustFromEdges(0, 0, nil),
		"no-edges":      MustFromEdges(5, 7, nil),
		"single":        MustFromEdges(1, 1, []Edge{{X: 0, Y: 0}}),
		"path":          MustFromEdges(3, 3, []Edge{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 2, Y: 1}, {X: 2, Y: 2}}),
		"star":          MustFromEdges(5, 1, []Edge{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}, {X: 3, Y: 0}, {X: 4, Y: 0}}),
		"complete3x4":   completeGraph(3, 4),
		"er-sparse":     gen.ER(200, 200, 600, 1),
		"er-dense":      gen.ER(100, 120, 3000, 2),
		"er-rect":       gen.ER(300, 80, 1200, 3),
		"grid":          gen.Grid(16, 16),
		"mesh":          gen.Mesh(12, 18, 4),
		"roadnet":       gen.RoadNet(20, 20, 0.85, 5),
		"rmat":          gen.RMAT(9, 8, 0.57, 0.19, 0.19, 6),
		"scalefree":     gen.ScaleFree(256, 256, 4, 7),
		"weblike":       gen.WebLike(9, 6, 0.3, 8),
		"rankdeficient": gen.RankDeficient(300, 300, 120, 3, 9),
		"banded":        gen.Banded(200, 3, 0.7, 10),
	}
}

func completeGraph(nx, ny int32) *Graph {
	var edges []Edge
	for x := int32(0); x < nx; x++ {
		for y := int32(0); y < ny; y++ {
			edges = append(edges, Edge{X: x, Y: y})
		}
	}
	return MustFromEdges(nx, ny, edges)
}

// TestAllAlgorithmsAgree is the central cross-check: every algorithm, under
// every initializer and at 1 and 4 threads, must produce a valid matching
// of identical (maximum) cardinality, certified by König's theorem.
func TestAllAlgorithmsAgree(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			var want int64 = -1
			for _, alg := range allAlgorithms {
				for _, threads := range []int{1, 4} {
					res, err := Match(g, Options{Algorithm: alg, Threads: threads, Seed: 42})
					if err != nil {
						t.Fatalf("%v/p=%d: %v", alg, threads, err)
					}
					if err := VerifyMaximum(g, res.MateX, res.MateY); err != nil {
						t.Fatalf("%v/p=%d: %v", alg, threads, err)
					}
					if want == -1 {
						want = res.Cardinality
					} else if res.Cardinality != want {
						t.Fatalf("%v/p=%d: cardinality %d, want %d", alg, threads, res.Cardinality, want)
					}
				}
			}
		})
	}
}

// TestInitializers checks every initializer produces a valid starting
// matching and the final result is unaffected.
func TestInitializers(t *testing.T) {
	g := gen.ER(150, 150, 500, 11)
	var want int64 = -1
	for _, init := range []Initializer{KarpSipser, Greedy, ParallelGreedy, NoInit, ParallelKarpSipser} {
		res, err := Match(g, Options{Initializer: init, Threads: 2, Seed: 1})
		if err != nil {
			t.Fatalf("init %v: %v", init, err)
		}
		if err := VerifyMaximum(g, res.MateX, res.MateY); err != nil {
			t.Fatalf("init %v: %v", init, err)
		}
		if want == -1 {
			want = res.Cardinality
		} else if res.Cardinality != want {
			t.Fatalf("init %v: cardinality %d, want %d", init, res.Cardinality, want)
		}
	}
}

// TestRandomSweep hammers MS-BFS-Graft against Hopcroft–Karp on many random
// instances with varying shapes and densities.
func TestRandomSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("long sweep")
	}
	for seed := int64(0); seed < 30; seed++ {
		nx := int32(20 + (seed*37)%180)
		ny := int32(20 + (seed*53)%180)
		m := int64(nx) * (1 + seed%6)
		g := gen.ER(nx, ny, m, seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			ref, err := Match(g, Options{Algorithm: HopcroftKarp, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Match(g, Options{Algorithm: MSBFSGraft, Threads: 4, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if got.Cardinality != ref.Cardinality {
				t.Fatalf("graft=%d hk=%d", got.Cardinality, ref.Cardinality)
			}
			if err := VerifyMaximum(g, got.MateX, got.MateY); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMaximumMatchingConvenience(t *testing.T) {
	g := MustFromEdges(4, 4, []Edge{{X: 0, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 0}, {X: 2, Y: 2}, {X: 3, Y: 2}})
	mateX, card, err := MaximumMatching(g)
	if err != nil {
		t.Fatal(err)
	}
	if card != 3 {
		t.Fatalf("cardinality = %d, want 3", card)
	}
	if len(mateX) != 4 {
		t.Fatalf("len(mateX) = %d, want 4", len(mateX))
	}
}

func TestMatchNilGraph(t *testing.T) {
	if _, err := Match(nil, Options{}); err == nil {
		t.Fatal("want error for nil graph")
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	g := MustFromEdges(1, 1, []Edge{{X: 0, Y: 0}})
	if _, err := Match(g, Options{Algorithm: Algorithm(99)}); err == nil {
		t.Fatal("want error for unknown algorithm")
	}
	if _, err := Match(g, Options{Initializer: Initializer(99)}); err == nil {
		t.Fatal("want error for unknown initializer")
	}
}

func TestAlgorithmString(t *testing.T) {
	for _, alg := range allAlgorithms {
		if alg.String() == "" {
			t.Fatalf("empty name for %d", int(alg))
		}
	}
	if Algorithm(99).String() != "Algorithm(99)" {
		t.Fatalf("unexpected name %q", Algorithm(99).String())
	}
}

// TestStatsNameTheAlgorithm: a run's Stats.Algorithm is the name
// Algorithm.String() gives it, the one checkpoints and matchd also use.
func TestStatsNameTheAlgorithm(t *testing.T) {
	g := gen.ER(60, 60, 240, 4)
	for _, alg := range allAlgorithms {
		res, err := Match(g, Options{Algorithm: alg, Threads: 2})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.Stats.Algorithm != alg.String() {
			t.Errorf("%v: Stats.Algorithm = %q, want %q", alg, res.Stats.Algorithm, alg.String())
		}
	}
}

// TestParseNames pins the one name vocabulary the tools and matchd share:
// every algorithm and initializer has a name, parsing ignores case, the
// empty name is the default, and unknown names are errors.
func TestParseNames(t *testing.T) {
	namedA := map[Algorithm]bool{}
	for name, want := range algorithmNames {
		if got, err := ParseAlgorithm(strings.ToUpper(name)); err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", strings.ToUpper(name), got, err, want)
		}
		namedA[want] = true
	}
	for _, alg := range allAlgorithms {
		if !namedA[alg] {
			t.Errorf("%v has no name", alg)
		}
	}
	namedI := map[Initializer]bool{}
	for name, want := range initializerNames {
		if got, err := ParseInitializer(strings.ToUpper(name)); err != nil || got != want {
			t.Errorf("ParseInitializer(%q) = %v, %v; want %v", strings.ToUpper(name), got, err, want)
		}
		namedI[want] = true
	}
	for _, init := range []Initializer{KarpSipser, Greedy, ParallelGreedy, NoInit, ParallelKarpSipser} {
		if !namedI[init] {
			t.Errorf("initializer %d has no name", init)
		}
	}
	if a, err := ParseAlgorithm(""); err != nil || a != MSBFSGraft {
		t.Errorf(`ParseAlgorithm("") = %v, %v; want MS-BFS-Graft`, a, err)
	}
	if i, err := ParseInitializer(""); err != nil || i != KarpSipser {
		t.Errorf(`ParseInitializer("") = %v, %v; want Karp-Sipser`, i, err)
	}
	if _, err := ParseAlgorithm("quantum"); err == nil {
		t.Error("ParseAlgorithm accepted an unknown name")
	}
	if _, err := ParseInitializer("magic"); err == nil {
		t.Error("ParseInitializer accepted an unknown name")
	}
}

// TestDifferentialAgainstReference cross-checks every algorithm against the
// independent reference implementations (shared no code with the engines):
// SimpleMaximum on medium random instances and exhaustive search on tiny
// ones.
func TestDifferentialAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		nx := int32(rng.Intn(80) + 2)
		ny := int32(rng.Intn(80) + 2)
		b := NewBuilder(nx, ny)
		m := rng.Intn(400)
		for i := 0; i < m; i++ {
			if err := b.AddEdge(int32(rng.Intn(int(nx))), int32(rng.Intn(int(ny)))); err != nil {
				t.Fatal(err)
			}
		}
		g := b.Build()
		want := reference.SimpleMaximum(g).Cardinality()
		for _, alg := range allAlgorithms {
			res, err := Match(g, Options{Algorithm: alg, Threads: 3, Seed: int64(trial)})
			if err != nil {
				t.Fatal(err)
			}
			if res.Cardinality != want {
				t.Fatalf("trial %d, %v: %d, want %d", trial, alg, res.Cardinality, want)
			}
		}
	}
	// Tiny instances against exhaustive search.
	for trial := 0; trial < 40; trial++ {
		nx := int32(rng.Intn(5) + 1)
		ny := int32(rng.Intn(5) + 1)
		b := NewBuilder(nx, ny)
		for i := 0; i < 10; i++ {
			_ = b.AddEdge(int32(rng.Intn(int(nx))), int32(rng.Intn(int(ny))))
		}
		g := b.Build()
		want := reference.BruteForceMaximum(g)
		res, err := Match(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cardinality != want {
			t.Fatalf("tiny trial %d: %d, want %d", trial, res.Cardinality, want)
		}
	}
}

func TestGraphFileRoundTrips(t *testing.T) {
	g := gen.Grid(8, 8)
	dir := t.TempDir()
	for _, name := range []string{"g.mtx", "g.el", "g.mtx.gz"} {
		path := filepath.Join(dir, name)
		if err := WriteGraphFile(path, g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g2, err := ReadGraphFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g2.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: edges %d vs %d", name, g2.NumEdges(), g.NumEdges())
		}
	}
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, g); err != nil {
		t.Fatal(err)
	}
	g3, err := ReadMatrixMarket(&buf)
	if err != nil || g3.NumEdges() != g.NumEdges() {
		t.Fatalf("in-memory round trip: %v", err)
	}
}

func TestFacadeTraceAndStats(t *testing.T) {
	g := gen.WebLike(8, 5, 0.3, 12)
	res, err := Match(g, Options{Initializer: NoInit, TraceFrontiers: true, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.FrontierTrace) == 0 {
		t.Fatal("no trace through facade")
	}
	if res.Stats.MTEPS() < 0 || res.Stats.AvgAugPathLen() < 0 {
		t.Fatal("bad derived stats")
	}
	for _, alg := range []Algorithm{MSBFS, MSBFSDirOpt} {
		r2, err := Match(g, Options{Algorithm: alg, TraceFrontiers: true, Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		if r2.Cardinality != res.Cardinality {
			t.Fatalf("%v cardinality %d vs %d", alg, r2.Cardinality, res.Cardinality)
		}
	}
}

func TestFacadeAlphaOption(t *testing.T) {
	g := gen.ER(100, 100, 400, 13)
	for _, alpha := range []float64{1, 5, 20} {
		res, err := Match(g, Options{Alpha: alpha, Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyMaximum(g, res.MateX, res.MateY); err != nil {
			t.Fatalf("alpha=%f: %v", alpha, err)
		}
	}
}

func TestVerifyMatchingFacade(t *testing.T) {
	g := MustFromEdges(2, 2, []Edge{{X: 0, Y: 0}, {X: 1, Y: 1}})
	res, err := Match(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyMatching(g, res.MateX, res.MateY); err != nil {
		t.Fatal(err)
	}
	bad := make([]int32, len(res.MateX))
	copy(bad, res.MateX)
	bad[0] = 1 // claim x0 matched to y1: not an edge / asymmetric
	if err := VerifyMatching(g, bad, res.MateY); err == nil {
		t.Fatal("want error for corrupted mates")
	}
}

func TestBTFErrorPath(t *testing.T) {
	if _, err := BlockTriangularForm(nil, Options{}); err == nil {
		t.Fatal("want error for nil graph")
	}
}

// TestNonMaximalInitialMatchings: every algorithm must accept an arbitrary
// valid (not necessarily maximal) initial matching. We thin a greedy
// matching randomly and run each algorithm through the internal APIs the
// facade wraps.
func TestNonMaximalInitialMatchings(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := gen.ER(200, 200, 800, 17)
	ref, err := Match(g, Options{Algorithm: HopcroftKarp})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range allAlgorithms {
		// Build a thinned valid matching via the public API result.
		full, err := Match(g, Options{Algorithm: HopcroftKarp})
		if err != nil {
			t.Fatal(err)
		}
		mateX := make([]int32, len(full.MateX))
		mateY := make([]int32, len(full.MateY))
		copy(mateX, full.MateX)
		copy(mateY, full.MateY)
		for x := range mateX {
			if mateX[x] != Unmatched && rng.Intn(2) == 0 {
				mateY[mateX[x]] = Unmatched
				mateX[x] = Unmatched
			}
		}
		if err := VerifyMatching(g, mateX, mateY); err != nil {
			t.Fatal(err)
		}
		got := matchFromPartial(t, g, alg, mateX, mateY)
		if got != ref.Cardinality {
			t.Fatalf("%v from partial init: %d, want %d", alg, got, ref.Cardinality)
		}
	}
}

// matchFromPartial resumes each algorithm from the given partial matching
// via the ResumeMatch API and returns the final cardinality.
func matchFromPartial(t *testing.T, g *Graph, alg Algorithm, mateX, mateY []int32) int64 {
	t.Helper()
	res, err := ResumeMatch(g, mateX, mateY, Options{Algorithm: alg, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyMaximum(g, res.MateX, res.MateY); err != nil {
		t.Fatal(err)
	}
	return res.Cardinality
}

func TestResumeMatchErrors(t *testing.T) {
	g := MustFromEdges(2, 2, []Edge{{X: 0, Y: 0}})
	if _, err := ResumeMatch(nil, nil, nil, Options{}); err == nil {
		t.Fatal("want error for nil graph")
	}
	bad := []int32{1, Unmatched} // x0 "matched" to nonexistent edge partner
	if _, err := ResumeMatch(g, bad, []int32{Unmatched, 0}, Options{}); err == nil {
		t.Fatal("want error for invalid initial matching")
	}
}

// TestResumeMatchDoesNotAliasInput: the caller's arrays must not be
// mutated.
func TestResumeMatchDoesNotAliasInput(t *testing.T) {
	g := MustFromEdges(2, 2, []Edge{{X: 0, Y: 0}, {X: 1, Y: 1}})
	mateX := []int32{Unmatched, Unmatched}
	mateY := []int32{Unmatched, Unmatched}
	res, err := ResumeMatch(g, mateX, mateY, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cardinality != 2 {
		t.Fatalf("cardinality %d", res.Cardinality)
	}
	if mateX[0] != Unmatched || mateY[0] != Unmatched {
		t.Fatal("input arrays mutated")
	}
}

// TestMediumScaleSoak exercises every algorithm on the medium-scale Fig. 1
// representatives (up to ~60k vertices / ~290k arcs) with certification —
// the closest thing to a production workload in the unit suite. Skipped
// under -short.
func TestMediumScaleSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("medium-scale soak")
	}
	for _, inst := range exps.Fig1Suite(exps.Medium) {
		inst := inst
		t.Run(inst.Name, func(t *testing.T) {
			var want int64 = -1
			for _, alg := range allAlgorithms {
				res, err := Match(inst.Graph, Options{Algorithm: alg, Threads: 4, Initializer: Greedy})
				if err != nil {
					t.Fatal(err)
				}
				if want == -1 {
					want = res.Cardinality
					if err := VerifyMaximum(inst.Graph, res.MateX, res.MateY); err != nil {
						t.Fatal(err)
					}
				} else if res.Cardinality != want {
					t.Fatalf("%v: %d, want %d", alg, res.Cardinality, want)
				}
			}
		})
	}
}
