// Package matching defines the common vocabulary of every matching algorithm
// in this repository: the Matching type (mate arrays), validity and
// maximality verification (König certificate), and the instrumentation
// counters the paper's evaluation reports (edges traversed, phases,
// augmenting-path lengths, per-step time breakdown).
package matching

import (
	"fmt"

	"graftmatch/internal/bipartite"
)

// None marks an unmatched vertex in mate arrays.
const None = bipartite.None

// Matching is a matching of a bipartite graph as a pair of mate arrays:
// MateX[x] is the Y vertex matched to x (or None), and symmetrically MateY.
type Matching struct {
	MateX []int32
	MateY []int32
}

// New returns an empty matching for a graph with the given part sizes.
func New(nx, ny int32) *Matching {
	m := &Matching{
		MateX: make([]int32, nx),
		MateY: make([]int32, ny),
	}
	for i := range m.MateX {
		m.MateX[i] = None
	}
	for i := range m.MateY {
		m.MateY[i] = None
	}
	return m
}

// Clone returns a deep copy.
func (m *Matching) Clone() *Matching {
	c := &Matching{
		MateX: make([]int32, len(m.MateX)),
		MateY: make([]int32, len(m.MateY)),
	}
	copy(c.MateX, m.MateX)
	copy(c.MateY, m.MateY)
	return c
}

// Cardinality returns |M|, the number of matched edges.
func (m *Matching) Cardinality() int64 {
	var c int64
	for _, y := range m.MateX {
		if y != None {
			c++
		}
	}
	return c
}

// MatchingNumberFraction returns |M| relative to the total vertex count
// |X|+|Y| doubled-coverage style used in the paper's Table II ("matching
// number as a fraction of the number of vertices in V"): 2|M| / (|X|+|Y|),
// i.e. the fraction of vertices that are matched.
func (m *Matching) MatchingNumberFraction() float64 {
	n := len(m.MateX) + len(m.MateY)
	if n == 0 {
		return 0
	}
	return float64(2*m.Cardinality()) / float64(n)
}

// Match records the matched edge (x, y), overwriting any previous mates of
// x and y (callers maintain consistency; use Augment for path flips).
func (m *Matching) Match(x, y int32) {
	m.MateX[x] = y
	m.MateY[y] = x
}

// IsMatchedX reports whether X vertex x is matched.
func (m *Matching) IsMatchedX(x int32) bool { return m.MateX[x] != None }

// IsMatchedY reports whether Y vertex y is matched.
func (m *Matching) IsMatchedY(y int32) bool { return m.MateY[y] != None }

// UnmatchedX appends all unmatched X vertices to dst and returns it.
func (m *Matching) UnmatchedX(dst []int32) []int32 {
	for x := range m.MateX {
		if m.MateX[x] == None {
			dst = append(dst, int32(x))
		}
	}
	return dst
}

// Verify checks that m is a valid matching of g: mate arrays are mutually
// consistent, in range, and every matched pair is an edge of g. It reports
// malformed input (nil graph or matching, mismatched mate-array lengths) as
// a descriptive error rather than panicking.
func (m *Matching) Verify(g *bipartite.Graph) error {
	_, err := m.VerifyCardinality(g)
	return err
}

// VerifyCardinality is Verify that also returns |M|. It reads X's adjacency
// in order, finding each matched pair in its X vertex's sorted neighbor
// list, and checks the Y side by a count: every matched x is its mate's mate,
// so as many matched Y as X leaves no Y to check one by one.
func (m *Matching) VerifyCardinality(g *bipartite.Graph) (int64, error) {
	if m == nil {
		return 0, fmt.Errorf("matching: nil matching")
	}
	if g == nil {
		return 0, fmt.Errorf("matching: nil graph")
	}
	nx, ny := g.NX(), g.NY()
	if int32(len(m.MateX)) != nx || int32(len(m.MateY)) != ny {
		return 0, fmt.Errorf("matching: mate array lengths (%d,%d) do not match graph dimensions (%d,%d); were the mates computed on a different graph?",
			len(m.MateX), len(m.MateY), nx, ny)
	}
	mateX, mateY := m.MateX, m.MateY
	xptr, xnbr := g.XPtr(), g.XNbr()
	var card int64
	for x, y := range mateX {
		if y == None {
			continue
		}
		if y < 0 || y >= ny {
			return 0, fmt.Errorf("matching: mateX[%d]=%d out of range", x, y)
		}
		if mateY[y] != int32(x) {
			return 0, fmt.Errorf("matching: asymmetric mates: mateX[%d]=%d but mateY[%d]=%d", x, y, y, mateY[y])
		}
		if !sortedHas(xnbr[xptr[x]:xptr[x+1]], y) {
			return 0, fmt.Errorf("matching: matched pair (%d,%d) is not an edge", x, y)
		}
		card++
	}
	var matchedY int64
	for _, x := range mateY {
		if x != None {
			matchedY++
		}
	}
	if matchedY == card {
		return card, nil
	}
	// Some y has a mate that does not have it back; name the first.
	for y, x := range mateY {
		switch {
		case x == None:
		case x < 0 || x >= nx:
			return 0, fmt.Errorf("matching: mateY[%d]=%d out of range", y, x)
		case mateX[x] != int32(y):
			return 0, fmt.Errorf("matching: asymmetric mates: mateY[%d]=%d but mateX[%d]=%d", y, x, x, mateX[x])
		}
	}
	return 0, fmt.Errorf("matching: asymmetric mates: %d Y vertices have a mate, %d X vertices", matchedY, card)
}

// sortedHas reports whether the sorted list nbr holds y, by binary search.
func sortedHas(nbr []int32, y int32) bool {
	lo, hi := 0, len(nbr)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if nbr[h] < y {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo < len(nbr) && nbr[lo] == y
}

// Augment flips the matched status of every edge along the alternating path
// path = (x0, y1, x1, y2, ..., yk), which must start at an unmatched X
// vertex and end at an unmatched Y vertex with odd length. It increases the
// cardinality by exactly one.
func (m *Matching) Augment(path []int32) error {
	if len(path) < 2 || len(path)%2 != 0 {
		return fmt.Errorf("matching: augmenting path must alternate x,y,... with even vertex count, got %d", len(path))
	}
	x0, yk := path[0], path[len(path)-1]
	if m.MateX[x0] != None {
		return fmt.Errorf("matching: path start x=%d already matched", x0)
	}
	if m.MateY[yk] != None {
		return fmt.Errorf("matching: path end y=%d already matched", yk)
	}
	for i := 0; i+1 < len(path); i += 2 {
		m.Match(path[i], path[i+1])
	}
	return nil
}
