package pf

import (
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

func TestBasicInstances(t *testing.T) {
	cases := []struct {
		name string
		g    *bipartite.Graph
		want int64
	}{
		{"empty", bipartite.MustFromEdges(0, 0, nil), 0},
		{"no-edges", bipartite.MustFromEdges(3, 3, nil), 0},
		{"single", bipartite.MustFromEdges(1, 1, []bipartite.Edge{{X: 0, Y: 0}}), 1},
		{"path", bipartite.MustFromEdges(3, 3, []bipartite.Edge{
			{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 2, Y: 1}, {X: 2, Y: 2}}), 3},
	}
	for _, c := range cases {
		for _, p := range []int{1, 4} {
			m := matching.New(c.g.NX(), c.g.NY())
			Run(c.g, m, p)
			if m.Cardinality() != c.want {
				t.Fatalf("%s p=%d: %d, want %d", c.name, p, m.Cardinality(), c.want)
			}
			if err := matching.VerifyMaximum(c.g, m); err != nil {
				t.Fatalf("%s p=%d: %v", c.name, p, err)
			}
		}
	}
}

func TestMatchesHopcroftKarpSerial(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.ER(130, 120, 520, seed)
		a := matchinit.KarpSipser(g, seed)
		b := a.Clone()
		Run(g, a, 1)
		hk.Run(g, b)
		return a.Cardinality() == b.Cardinality() && matching.VerifyMaximum(g, a) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelCorrectness(t *testing.T) {
	graphs := []*bipartite.Graph{
		gen.ER(500, 500, 2500, 1),
		gen.RMAT(9, 8, 0.57, 0.19, 0.19, 2),
		gen.Grid(20, 20),
		gen.RankDeficient(600, 600, 200, 3, 3),
		gen.WebLike(9, 4, 0.3, 4),
	}
	for i, g := range graphs {
		ref := matching.New(g.NX(), g.NY())
		hk.Run(g, ref)
		for _, p := range []int{2, 4, 8} {
			m := matchinit.KarpSipser(g, int64(i))
			Run(g, m, p)
			if m.Cardinality() != ref.Cardinality() {
				t.Fatalf("graph %d p=%d: %d, want %d", i, p, m.Cardinality(), ref.Cardinality())
			}
			if err := matching.VerifyMaximum(g, m); err != nil {
				t.Fatalf("graph %d p=%d: %v", i, p, err)
			}
		}
	}
}

// TestLookaheadFindsImmediateEnds: from an empty matching on a perfect
// diagonal graph, every search must finish via lookahead with a length-1
// path.
func TestLookaheadLengthOnePaths(t *testing.T) {
	var edges []bipartite.Edge
	for i := int32(0); i < 50; i++ {
		edges = append(edges, bipartite.Edge{X: i, Y: i})
		edges = append(edges, bipartite.Edge{X: i, Y: (i + 1) % 50})
	}
	g := bipartite.MustFromEdges(50, 50, edges)
	m := matching.New(50, 50)
	stats := Run(g, m, 1)
	if m.Cardinality() != 50 {
		t.Fatalf("cardinality %d", m.Cardinality())
	}
	if stats.AugPathLen != stats.AugPaths {
		t.Fatalf("lookahead missed immediate free vertices: len=%d paths=%d", stats.AugPathLen, stats.AugPaths)
	}
}

func TestFairnessTogglesAcrossPhases(t *testing.T) {
	// Multiphase instance; just ensure multiple phases run and converge.
	g := gen.ER(1500, 1500, 4500, 5)
	m := matching.New(g.NX(), g.NY())
	stats := Run(g, m, 2)
	if stats.Phases < 2 {
		t.Skipf("instance solved in one phase (phases=%d)", stats.Phases)
	}
	if err := matching.VerifyMaximum(g, m); err != nil {
		t.Fatal(err)
	}
}

func TestDeepPathIterative(t *testing.T) {
	n := int32(30000)
	var edges []bipartite.Edge
	for i := int32(0); i < n; i++ {
		edges = append(edges, bipartite.Edge{X: i, Y: i})
		if i+1 < n {
			edges = append(edges, bipartite.Edge{X: i + 1, Y: i})
		}
	}
	g := bipartite.MustFromEdges(n, n, edges)
	m := matching.New(n, n)
	Run(g, m, 2)
	if m.Cardinality() != int64(n) {
		t.Fatalf("cardinality %d, want %d", m.Cardinality(), n)
	}
}

func TestStatsPopulated(t *testing.T) {
	g := gen.ER(200, 200, 800, 6)
	m := matching.New(g.NX(), g.NY())
	stats := Run(g, m, 2)
	if stats.Algorithm != "PF" || stats.Threads != 2 {
		t.Fatalf("header: %+v", stats)
	}
	if stats.EdgesTraversed == 0 || stats.Phases == 0 || stats.AugPaths == 0 {
		t.Fatalf("accounting: %+v", stats)
	}
	if stats.FinalCardinality != m.Cardinality() {
		t.Fatalf("final cardinality mismatch")
	}
}
