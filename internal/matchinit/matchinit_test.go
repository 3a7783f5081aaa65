package matchinit

import (
	"fmt"
	"testing"
	"testing/quick"

	"graftmatch/internal/bipartite"
	"graftmatch/internal/gen"
	"graftmatch/internal/leaktest"
	"graftmatch/internal/matching"
)

func TestMain(m *testing.M) { leaktest.Main(m) }

// checkMaximal verifies validity plus maximality: no edge joins two
// unmatched vertices.
func checkMaximal(t *testing.T, g *bipartite.Graph, m *matching.Matching, name string) {
	t.Helper()
	if err := m.Verify(g); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for x := int32(0); x < g.NX(); x++ {
		if m.MateX[x] != matching.None {
			continue
		}
		for _, y := range g.NbrX(x) {
			if m.MateY[y] == matching.None {
				t.Fatalf("%s: not maximal: edge (%d,%d) joins two free vertices", name, x, y)
			}
		}
	}
}

func suite() map[string]*bipartite.Graph {
	return map[string]*bipartite.Graph{
		"empty":     bipartite.MustFromEdges(0, 0, nil),
		"no-edges":  bipartite.MustFromEdges(4, 4, nil),
		"er":        gen.ER(120, 120, 500, 1),
		"grid":      gen.Grid(10, 10),
		"rmat":      gen.RMAT(8, 8, 0.57, 0.19, 0.19, 2),
		"deficient": gen.RankDeficient(150, 150, 60, 2, 3),
		"star":      bipartite.MustFromEdges(4, 1, []bipartite.Edge{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}, {X: 3, Y: 0}}),
	}
}

func TestKarpSipserMaximal(t *testing.T) {
	for name, g := range suite() {
		m := KarpSipser(g, 42)
		checkMaximal(t, g, m, "KS/"+name)
	}
}

func TestGreedyMaximal(t *testing.T) {
	for name, g := range suite() {
		m := Greedy(g)
		checkMaximal(t, g, m, "greedy/"+name)
	}
}

func TestParallelGreedyMaximal(t *testing.T) {
	for name, g := range suite() {
		for _, p := range []int{1, 2, 8} {
			m := ParallelGreedy(g, p)
			checkMaximal(t, g, m, fmt.Sprintf("pgreedy(%d)/%s", p, name))
		}
	}
}

// TestKarpSipserDegreeOneOptimal: on a forest (here: a path), the degree-1
// rule alone is optimal, so Karp–Sipser must find the true maximum.
func TestKarpSipserDegreeOneOptimal(t *testing.T) {
	// Path x0-y0-x1-y1-...: maximum matching n on 2n+1 path vertices.
	n := int32(20)
	var edges []bipartite.Edge
	for i := int32(0); i < n; i++ {
		edges = append(edges, bipartite.Edge{X: i, Y: i})
		if i+1 < n {
			edges = append(edges, bipartite.Edge{X: i + 1, Y: i})
		}
	}
	g := bipartite.MustFromEdges(n, n, edges)
	m := KarpSipser(g, 1)
	if m.Cardinality() != int64(n) {
		t.Fatalf("KS on path: %d, want %d", m.Cardinality(), n)
	}
}

func TestKarpSipserDeterministicPerSeed(t *testing.T) {
	g := gen.ER(100, 100, 400, 9)
	a := KarpSipser(g, 5)
	b := KarpSipser(g, 5)
	for i := range a.MateX {
		if a.MateX[i] != b.MateX[i] {
			t.Fatal("same seed produced different matchings")
		}
	}
}

// TestKarpSipserBeatsGreedyOnAverage: KS should never be much worse than
// greedy and typically at least as good on random sparse graphs.
func TestKarpSipserQuality(t *testing.T) {
	var ksTotal, greedyTotal int64
	for seed := int64(0); seed < 10; seed++ {
		g := gen.ER(300, 300, 900, seed)
		ksTotal += KarpSipser(g, seed).Cardinality()
		greedyTotal += Greedy(g).Cardinality()
	}
	if ksTotal < greedyTotal*95/100 {
		t.Fatalf("Karp–Sipser total %d much worse than greedy %d", ksTotal, greedyTotal)
	}
}

// TestInitializersValidProperty: random graphs always get valid maximal
// matchings from all initializers.
func TestInitializersValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.ER(60, 50, 250, seed)
		for _, m := range []*matching.Matching{
			KarpSipser(g, seed), Greedy(g), ParallelGreedy(g, 4),
		} {
			if m.Verify(g) != nil {
				return false
			}
			for x := int32(0); x < g.NX(); x++ {
				if m.MateX[x] != matching.None {
					continue
				}
				for _, y := range g.NbrX(x) {
					if m.MateY[y] == matching.None {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelKarpSipserMaximal(t *testing.T) {
	for name, g := range suite() {
		for _, p := range []int{1, 2, 8} {
			m := ParallelKarpSipser(g, p)
			checkMaximal(t, g, m, fmt.Sprintf("pks(%d)/%s", p, name))
		}
	}
}

// TestParallelKarpSipserQuality: the parallel relaxation must stay close to
// serial Karp–Sipser cardinality on random sparse graphs.
func TestParallelKarpSipserQuality(t *testing.T) {
	var pksTotal, ksTotal int64
	for seed := int64(0); seed < 8; seed++ {
		g := gen.ER(400, 400, 1300, seed)
		pksTotal += ParallelKarpSipser(g, 4).Cardinality()
		ksTotal += KarpSipser(g, seed).Cardinality()
	}
	if pksTotal < ksTotal*97/100 {
		t.Fatalf("parallel KS total %d much worse than serial KS %d", pksTotal, ksTotal)
	}
}

// TestParallelKarpSipserDegreeOnePath: on a path the degree-1 cascade alone
// is optimal; the parallel variant must find the full matching too.
func TestParallelKarpSipserDegreeOnePath(t *testing.T) {
	n := int32(501)
	var edges []bipartite.Edge
	for i := int32(0); i < n; i++ {
		edges = append(edges, bipartite.Edge{X: i, Y: i})
		if i+1 < n {
			edges = append(edges, bipartite.Edge{X: i + 1, Y: i})
		}
	}
	g := bipartite.MustFromEdges(n, n, edges)
	for _, p := range []int{1, 4} {
		m := ParallelKarpSipser(g, p)
		if m.Cardinality() != int64(n) {
			t.Fatalf("p=%d: %d, want %d", p, m.Cardinality(), n)
		}
	}
}
