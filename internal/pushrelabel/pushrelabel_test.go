package pushrelabel

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

func TestDefaults(t *testing.T) {
	o := Options{Threads: 1}.Defaults()
	if o.RelabelFreq != 2 || o.QueueLimit != 500 {
		t.Fatalf("serial defaults: %+v", o)
	}
	o = Options{Threads: 8}.Defaults()
	if o.RelabelFreq != 16 {
		t.Fatalf("parallel defaults: %+v", o)
	}
	o = Options{}.Defaults()
	if o.Threads < 1 {
		t.Fatalf("thread default: %+v", o)
	}
	o = Options{Threads: 2, RelabelFreq: 7, QueueLimit: 9}.Defaults()
	if o.RelabelFreq != 7 || o.QueueLimit != 9 {
		t.Fatalf("explicit values clobbered: %+v", o)
	}
}

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
		{"star", bipartite.MustFromEdges(4, 1, []bipartite.Edge{
			{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}, {X: 3, Y: 0}}), 1},
		{"crown", bipartite.MustFromEdges(3, 3, []bipartite.Edge{
			{X: 0, Y: 1}, {X: 0, Y: 2}, {X: 1, Y: 0}, {X: 1, Y: 2}, {X: 2, Y: 0}, {X: 2, Y: 1}}), 3},
	}
	for _, c := range cases {
		for _, p := range []int{1, 4} {
			m := matching.New(c.g.NX(), c.g.NY())
			Run(c.g, m, Options{Threads: p})
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
		g := gen.ER(110, 100, 420, seed)
		a := matchinit.KarpSipser(g, seed)
		b := a.Clone()
		Run(g, a, Options{Threads: 1})
		hk.Run(g, b)
		return a.Cardinality() == b.Cardinality() && matching.VerifyMaximum(g, a) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelCorrectness(t *testing.T) {
	graphs := []*bipartite.Graph{
		gen.ER(400, 400, 2000, 1),
		gen.RMAT(9, 6, 0.57, 0.19, 0.19, 2),
		gen.Grid(18, 18),
		gen.RankDeficient(500, 500, 180, 3, 3),
	}
	for i, g := range graphs {
		ref := matching.New(g.NX(), g.NY())
		hk.Run(g, ref)
		for _, p := range []int{2, 4, 8} {
			m := matchinit.KarpSipser(g, int64(i))
			Run(g, m, Options{Threads: p})
			if m.Cardinality() != ref.Cardinality() {
				t.Fatalf("graph %d p=%d: %d, want %d", i, p, m.Cardinality(), ref.Cardinality())
			}
			if err := matching.VerifyMaximum(g, m); err != nil {
				t.Fatalf("graph %d p=%d: %v", i, p, err)
			}
		}
	}
}

func TestRelabelFrequencies(t *testing.T) {
	g := gen.ER(300, 300, 1200, 4)
	ref := matching.New(g.NX(), g.NY())
	hk.Run(g, ref)
	for _, freq := range []int{1, 2, 8, 64} {
		m := matching.New(g.NX(), g.NY())
		Run(g, m, Options{Threads: 1, RelabelFreq: freq})
		if m.Cardinality() != ref.Cardinality() {
			t.Fatalf("freq=%d: %d, want %d", freq, m.Cardinality(), ref.Cardinality())
		}
	}
}

func TestFromEmptyAndFromInitializer(t *testing.T) {
	g := gen.WebLike(8, 5, 0.3, 7)
	a := matching.New(g.NX(), g.NY())
	Run(g, a, Options{Threads: 2})
	b := matchinit.KarpSipser(g, 7)
	Run(g, b, Options{Threads: 2})
	if a.Cardinality() != b.Cardinality() {
		t.Fatalf("empty-start %d vs KS-start %d", a.Cardinality(), b.Cardinality())
	}
	if err := matching.VerifyMaximum(g, a); err != nil {
		t.Fatal(err)
	}
}

// TestUnmatchableVerticesDropped: rank-deficient instances leave many X
// vertices permanently unmatchable; PR must terminate and be exact.
func TestDeficientTermination(t *testing.T) {
	g := gen.RankDeficient(800, 800, 100, 2, 9)
	m := matching.New(g.NX(), g.NY())
	stats := Run(g, m, Options{Threads: 4})
	if m.Cardinality() != 100 {
		t.Fatalf("cardinality %d, want 100 (%v)", m.Cardinality(), stats)
	}
}

func TestRectangularInstances(t *testing.T) {
	for _, c := range []struct{ nx, ny int32 }{{400, 40}, {40, 400}} {
		g := gen.ER(c.nx, c.ny, 1000, 8)
		ref := matching.New(g.NX(), g.NY())
		hk.Run(g, ref)
		for _, p := range []int{1, 4} {
			m := matching.New(g.NX(), g.NY())
			Run(g, m, Options{Threads: p})
			if m.Cardinality() != ref.Cardinality() {
				t.Fatalf("%dx%d p=%d: %d, want %d", c.nx, c.ny, p, m.Cardinality(), ref.Cardinality())
			}
		}
	}
}

// TestGlobalRelabelExactness: after a global relabel, every label is a
// valid lower bound — indirectly verified by exactness under a relabel
// frequency of 1 (relabel after every push).
func TestAggressiveRelabeling(t *testing.T) {
	g := gen.WebLike(8, 5, 0.3, 11)
	ref := matching.New(g.NX(), g.NY())
	hk.Run(g, ref)
	m := matching.New(g.NX(), g.NY())
	s := Run(g, m, Options{Threads: 1, RelabelFreq: 1})
	if m.Cardinality() != ref.Cardinality() {
		t.Fatalf("%d, want %d", m.Cardinality(), ref.Cardinality())
	}
	if s.Phases == 0 {
		t.Fatal("no global relabels counted")
	}
}

func TestStatsPopulatedPR(t *testing.T) {
	g := gen.ER(200, 200, 800, 12)
	m := matching.New(g.NX(), g.NY())
	s := Run(g, m, Options{Threads: 2})
	if s.Algorithm != "PR" || s.Threads != 2 {
		t.Fatalf("header: %+v", s)
	}
	if s.EdgesTraversed == 0 || s.AugPaths == 0 {
		t.Fatalf("accounting: %+v", s)
	}
}
