package matching

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"graftmatch/internal/bipartite"
)

func pathGraph() *bipartite.Graph {
	// x0-y0-x1-y1-x2-y2 path.
	return bipartite.MustFromEdges(3, 3, []bipartite.Edge{
		{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 2, Y: 1}, {X: 2, Y: 2},
	})
}

func TestNewEmpty(t *testing.T) {
	m := New(3, 4)
	if m.Cardinality() != 0 {
		t.Fatalf("cardinality = %d", m.Cardinality())
	}
	for _, v := range m.MateX {
		if v != None {
			t.Fatal("MateX not initialized to None")
		}
	}
	for _, v := range m.MateY {
		if v != None {
			t.Fatal("MateY not initialized to None")
		}
	}
}

func TestMatchAndCardinality(t *testing.T) {
	m := New(3, 3)
	m.Match(0, 1)
	m.Match(2, 0)
	if m.Cardinality() != 2 {
		t.Fatalf("cardinality = %d", m.Cardinality())
	}
	if !m.IsMatchedX(0) || !m.IsMatchedY(1) || m.IsMatchedX(1) || m.IsMatchedY(2) {
		t.Fatal("IsMatched wrong")
	}
	um := m.UnmatchedX(nil)
	if len(um) != 1 || um[0] != 1 {
		t.Fatalf("unmatchedX = %v", um)
	}
}

func TestMatchingNumberFraction(t *testing.T) {
	m := New(2, 2)
	if m.MatchingNumberFraction() != 0 {
		t.Fatal("empty fraction nonzero")
	}
	m.Match(0, 0)
	m.Match(1, 1)
	if f := m.MatchingNumberFraction(); f != 1.0 {
		t.Fatalf("perfect fraction = %f", f)
	}
	empty := New(0, 0)
	if empty.MatchingNumberFraction() != 0 {
		t.Fatal("zero-vertex fraction nonzero")
	}
}

func TestVerifyValid(t *testing.T) {
	g := pathGraph()
	m := New(3, 3)
	m.Match(0, 0)
	m.Match(1, 1)
	m.Match(2, 2)
	if err := m.Verify(g); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCatchesNonEdge(t *testing.T) {
	g := pathGraph()
	m := New(3, 3)
	m.Match(0, 2) // (0,2) is not an edge
	if err := m.Verify(g); err == nil {
		t.Fatal("want error for matched non-edge")
	}
}

func TestVerifyCatchesAsymmetry(t *testing.T) {
	g := pathGraph()
	m := New(3, 3)
	m.MateX[0] = 0 // no reverse pointer
	if err := m.Verify(g); err == nil {
		t.Fatal("want error for asymmetric mates")
	}
	m2 := New(3, 3)
	m2.MateY[0] = 0
	if err := m2.Verify(g); err == nil {
		t.Fatal("want error for asymmetric mateY")
	}
}

func TestVerifyCatchesOutOfRange(t *testing.T) {
	g := pathGraph()
	m := New(3, 3)
	m.MateX[0] = 7
	if err := m.Verify(g); err == nil {
		t.Fatal("want error for out-of-range mate")
	}
	m2 := New(3, 3)
	m2.MateY[0] = -5
	m2.MateY[0] = 9
	if err := m2.Verify(g); err == nil {
		t.Fatal("want error for out-of-range mateY")
	}
	bad := New(2, 2)
	if err := bad.Verify(g); err == nil {
		t.Fatal("want error for size mismatch")
	}
}

func TestAugment(t *testing.T) {
	g := pathGraph()
	m := New(3, 3)
	m.Match(1, 0)
	m.Match(2, 1)
	// Augmenting path x0-y0-x1-y1-x2-y2.
	if err := m.Augment([]int32{0, 0, 1, 1, 2, 2}); err != nil {
		t.Fatal(err)
	}
	if m.Cardinality() != 3 {
		t.Fatalf("cardinality = %d, want 3", m.Cardinality())
	}
	if err := m.Verify(g); err != nil {
		t.Fatal(err)
	}
}

func TestAugmentRejectsBadPaths(t *testing.T) {
	m := New(3, 3)
	if err := m.Augment([]int32{0}); err == nil {
		t.Fatal("want error for odd-length path")
	}
	if err := m.Augment(nil); err == nil {
		t.Fatal("want error for empty path")
	}
	m.Match(0, 0)
	if err := m.Augment([]int32{0, 1}); err == nil {
		t.Fatal("want error for matched start")
	}
	m2 := New(3, 3)
	m2.Match(1, 1)
	if err := m2.Augment([]int32{0, 1}); err == nil {
		t.Fatal("want error for matched end")
	}
}

func TestClone(t *testing.T) {
	m := New(2, 2)
	m.Match(0, 1)
	c := m.Clone()
	c.Match(1, 0)
	if m.IsMatchedX(1) {
		t.Fatal("clone aliases original")
	}
	if !c.IsMatchedX(0) || !c.IsMatchedX(1) {
		t.Fatal("clone lost state")
	}
}

func TestVerifyMaximumOnPerfect(t *testing.T) {
	g := pathGraph()
	m := New(3, 3)
	m.Match(0, 0)
	m.Match(1, 1)
	m.Match(2, 2)
	if err := VerifyMaximum(g, m); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyMaximumRejectsNonMaximum(t *testing.T) {
	g := pathGraph()
	m := New(3, 3)
	m.Match(1, 0)
	m.Match(2, 1)
	// Cardinality 2, but maximum is 3.
	if err := VerifyMaximum(g, m); err == nil {
		t.Fatal("want error for non-maximum matching")
	}
}

func TestAlternatingReach(t *testing.T) {
	g := pathGraph()
	m := New(3, 3)
	m.Match(1, 0)
	m.Match(2, 1)
	rx, ry, aug := AlternatingReach(g, m)
	if !aug {
		t.Fatal("augmenting path exists but not found")
	}
	// From unmatched x0: reach y0, its mate x1, then y1, x2, y2.
	for i, want := range []bool{true, true, true} {
		if rx[i] != want {
			t.Fatalf("reachedX[%d] = %v", i, rx[i])
		}
	}
	for i, want := range []bool{true, true, true} {
		if ry[i] != want {
			t.Fatalf("reachedY[%d] = %v", i, ry[i])
		}
	}
}

func TestMinVertexCoverCoversAllEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		nx := int32(rng.Intn(20) + 2)
		ny := int32(rng.Intn(20) + 2)
		b := bipartite.NewBuilder(nx, ny)
		for i := 0; i < 100; i++ {
			_ = b.AddEdge(int32(rng.Intn(int(nx))), int32(rng.Intn(int(ny))))
		}
		g := b.Build()
		m := maximumByAugmentation(g)
		coverX, coverY := MinVertexCover(g, m)
		for x := int32(0); x < nx; x++ {
			for _, y := range g.NbrX(x) {
				if !coverX[x] && !coverY[y] {
					t.Fatalf("edge (%d,%d) uncovered", x, y)
				}
			}
		}
		var size int64
		for _, c := range coverX {
			if c {
				size++
			}
		}
		for _, c := range coverY {
			if c {
				size++
			}
		}
		if size != m.Cardinality() {
			t.Fatalf("cover size %d != matching %d", size, m.Cardinality())
		}
	}
}

// maximumByAugmentation is an independent, dead-simple reference maximum
// matcher (repeated BFS augmentation) used to validate the certificates.
func maximumByAugmentation(g *bipartite.Graph) *Matching {
	m := New(g.NX(), g.NY())
	for {
		// BFS from all unmatched X for one augmenting path.
		parent := make([]int32, g.NY())
		for i := range parent {
			parent[i] = None
		}
		visited := make([]bool, g.NY())
		var frontier []int32
		for x := int32(0); x < g.NX(); x++ {
			if m.MateX[x] == None {
				frontier = append(frontier, x)
			}
		}
		var endY int32 = None
		rootOf := make(map[int32]int32)
		for _, x := range frontier {
			rootOf[x] = x
		}
	bfs:
		for len(frontier) > 0 && endY == None {
			var next []int32
			for _, x := range frontier {
				for _, y := range g.NbrX(x) {
					if visited[y] {
						continue
					}
					visited[y] = true
					parent[y] = x
					if m.MateY[y] == None {
						endY = y
						break bfs
					}
					next = append(next, m.MateY[y])
				}
			}
			frontier = next
		}
		if endY == None {
			return m
		}
		y := endY
		for {
			x := parent[y]
			prev := m.MateX[x]
			m.Match(x, y)
			if prev == None {
				break
			}
			y = prev
		}
	}
}

// TestCertificateProperty: for random graphs, the reference matcher's
// result always passes VerifyMaximum, and dropping one matched edge always
// fails it (when cardinality > 0).
func TestCertificateProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nx := int32(rng.Intn(15) + 1)
		ny := int32(rng.Intn(15) + 1)
		b := bipartite.NewBuilder(nx, ny)
		for i := 0; i < 60; i++ {
			_ = b.AddEdge(int32(rng.Intn(int(nx))), int32(rng.Intn(int(ny))))
		}
		g := b.Build()
		m := maximumByAugmentation(g)
		if err := VerifyMaximum(g, m); err != nil {
			return false
		}
		if m.Cardinality() == 0 {
			return true
		}
		// Remove one matched edge: no longer maximum.
		for x := int32(0); x < nx; x++ {
			if y := m.MateX[x]; y != None {
				m.MateX[x] = None
				m.MateY[y] = None
				break
			}
		}
		return VerifyMaximum(g, m) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// pairwiseVerify is Verify as a check of every vertex on both sides, each
// matched pair looked up with HasEdge: the reference VerifyCardinality's
// one-pass form must agree with, error text included.
func pairwiseVerify(g *bipartite.Graph, m *Matching) error {
	for x := int32(0); x < g.NX(); x++ {
		y := m.MateX[x]
		switch {
		case y == None:
		case y < 0 || y >= g.NY():
			return fmt.Errorf("matching: mateX[%d]=%d out of range", x, y)
		case m.MateY[y] != x:
			return fmt.Errorf("matching: asymmetric mates: mateX[%d]=%d but mateY[%d]=%d", x, y, y, m.MateY[y])
		case !g.HasEdge(x, y):
			return fmt.Errorf("matching: matched pair (%d,%d) is not an edge", x, y)
		}
	}
	for y := int32(0); y < g.NY(); y++ {
		x := m.MateY[y]
		switch {
		case x == None:
		case x < 0 || x >= g.NX():
			return fmt.Errorf("matching: mateY[%d]=%d out of range", y, x)
		case m.MateX[x] != y:
			return fmt.Errorf("matching: asymmetric mates: mateY[%d]=%d but mateX[%d]=%d", y, x, x, m.MateX[x])
		}
	}
	return nil
}

// TestVerifyCardinalityMatchesPairwise: on random graphs and mate arrays, a
// maximum matching with a few entries overwritten by arbitrary values,
// VerifyCardinality fails exactly when pairwiseVerify does, with its error,
// and otherwise counts |M|. Empty graphs, the zero Graph included, pass
// with 0.
func TestVerifyCardinalityMatchesPairwise(t *testing.T) {
	for _, g := range []*bipartite.Graph{new(bipartite.Graph), bipartite.MustFromEdges(0, 0, nil), bipartite.MustFromEdges(2, 3, nil)} {
		m := New(g.NX(), g.NY())
		if card, err := m.VerifyCardinality(g); card != 0 || err != nil {
			t.Fatalf("%v: (%d, %v), want (0, nil)", g, card, err)
		}
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nx := int32(rng.Intn(12) + 1)
		ny := int32(rng.Intn(12) + 1)
		b := bipartite.NewBuilder(nx, ny)
		for i := 0; i < 40; i++ {
			_ = b.AddEdge(int32(rng.Intn(int(nx))), int32(rng.Intn(int(ny))))
		}
		g := b.Build()
		m := maximumByAugmentation(g)
		for k := rng.Intn(3); k > 0; k-- {
			v := int32(rng.Intn(int(nx+ny)+2)) - 2 // None, -2 and out of range too
			if rng.Intn(2) == 0 {
				m.MateX[rng.Intn(int(nx))] = v
			} else {
				m.MateY[rng.Intn(int(ny))] = v
			}
		}
		card, err := m.VerifyCardinality(g)
		want := pairwiseVerify(g, m)
		if want != nil {
			return err != nil && err.Error() == want.Error() && card == 0
		}
		return err == nil && card == m.Cardinality()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
