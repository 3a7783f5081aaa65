// Package bipartite provides a compressed sparse row (CSR) representation of
// undirected bipartite graphs G(X ∪ Y, E) together with builders, statistics,
// and structural validation.
//
// The representation keeps the adjacency of both vertex parts so that
// searches can proceed top-down (from X) and bottom-up (from Y), as required
// by the direction-optimizing BFS of the MS-BFS-Graft algorithm. Following
// the paper's convention (§IV-B), a sparse matrix A with nnz(A) nonzeros maps
// to a bipartite graph with |X| = rows, |Y| = cols and m = 2·nnz(A) directed
// arcs (each nonzero stored once per direction).
package bipartite

import (
	"fmt"
	"sort"
)

// None marks an absent vertex, parent, root, leaf or mate.
const None int32 = -1

// Graph is an immutable bipartite graph in CSR form.
//
// X vertices are numbered 0..NX-1 and Y vertices 0..NY-1, each part in its
// own index space. XAdj/XEnd delimit the Y-neighbors of an X vertex inside
// XNbr, and symmetrically for Y. The zero value is an empty graph.
type Graph struct {
	nx, ny int32

	// CSR of the X side: neighbors of x are XNbr[XPtr[x]:XPtr[x+1]].
	xptr []int64
	xnbr []int32

	// CSR of the Y side: neighbors of y are YNbr[YPtr[y]:YPtr[y+1]].
	yptr []int64
	ynbr []int32
}

// NX returns the number of vertices in part X (rows).
func (g *Graph) NX() int32 { return g.nx }

// NY returns the number of vertices in part Y (columns).
func (g *Graph) NY() int32 { return g.ny }

// NumVertices returns |X| + |Y|.
func (g *Graph) NumVertices() int64 { return int64(g.nx) + int64(g.ny) }

// NumEdges returns the number of undirected edges (nonzeros).
func (g *Graph) NumEdges() int64 { return int64(len(g.xnbr)) }

// NumArcs returns the number of stored directed arcs, m = 2·NumEdges, the
// quantity the paper reports as |E| (§IV-B).
func (g *Graph) NumArcs() int64 { return int64(len(g.xnbr)) + int64(len(g.ynbr)) }

// DegX returns the degree of X vertex x.
func (g *Graph) DegX(x int32) int64 { return g.xptr[x+1] - g.xptr[x] }

// DegY returns the degree of Y vertex y.
func (g *Graph) DegY(y int32) int64 { return g.yptr[y+1] - g.yptr[y] }

// NbrX returns the Y-neighbors of X vertex x. The slice aliases internal
// storage and must not be modified.
func (g *Graph) NbrX(x int32) []int32 { return g.xnbr[g.xptr[x]:g.xptr[x+1]] }

// NbrY returns the X-neighbors of Y vertex y. The slice aliases internal
// storage and must not be modified.
func (g *Graph) NbrY(y int32) []int32 { return g.ynbr[g.yptr[y]:g.yptr[y+1]] }

// XPtr exposes the raw X-side CSR offsets (len NX+1) for tight loops.
func (g *Graph) XPtr() []int64 { return g.xptr }

// XNbr exposes the raw X-side CSR adjacency for tight loops.
func (g *Graph) XNbr() []int32 { return g.xnbr }

// YNbr exposes the raw Y-side CSR adjacency for tight loops.
func (g *Graph) YNbr() []int32 { return g.ynbr }

// HasEdge reports whether (x, y) is an edge. Neighbor lists are sorted, so
// this is a binary search over the smaller-endpoint adjacency.
func (g *Graph) HasEdge(x, y int32) bool {
	if x < 0 || x >= g.nx || y < 0 || y >= g.ny {
		return false
	}
	nbr := g.NbrX(x)
	if dy := g.DegY(y); dy < int64(len(nbr)) {
		nbr = g.NbrY(y)
		i := sort.Search(len(nbr), func(i int) bool { return nbr[i] >= x })
		return i < len(nbr) && nbr[i] == x
	}
	i := sort.Search(len(nbr), func(i int) bool { return nbr[i] >= y })
	return i < len(nbr) && nbr[i] == y
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("bipartite.Graph{nx: %d, ny: %d, edges: %d}", g.nx, g.ny, g.NumEdges())
}

// Edge is a single (X, Y) pair used by builders and iteration.
type Edge struct {
	X, Y int32
}

// Edges appends every edge of g to dst and returns it, in X-major sorted
// order. Intended for tests and I/O, not hot paths.
func (g *Graph) Edges(dst []Edge) []Edge {
	for x := int32(0); x < g.nx; x++ {
		for _, y := range g.NbrX(x) {
			dst = append(dst, Edge{x, y})
		}
	}
	return dst
}

// Transpose returns a graph with the roles of X and Y exchanged. The CSR
// slices are shared with the receiver, so the operation is O(1).
func (g *Graph) Transpose() *Graph {
	return &Graph{
		nx:   g.ny,
		ny:   g.nx,
		xptr: g.yptr,
		xnbr: g.ynbr,
		yptr: g.xptr,
		ynbr: g.xnbr,
	}
}

// FromEdges builds a graph with nx X-vertices, ny Y-vertices and the given
// edge list. Duplicate edges are coalesced. It returns an error if any
// endpoint is out of range.
func FromEdges(nx, ny int32, edges []Edge) (*Graph, error) {
	if nx < 0 || ny < 0 {
		return nil, fmt.Errorf("bipartite: negative part size nx=%d ny=%d", nx, ny)
	}
	b := NewBuilder(nx, ny)
	for _, e := range edges {
		if err := b.AddEdge(e.X, e.Y); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// MustFromEdges is FromEdges that panics on error; for tests and examples.
func MustFromEdges(nx, ny int32, edges []Edge) *Graph {
	g, err := FromEdges(nx, ny, edges)
	if err != nil {
		panic(err) //lint:ignore err-checked Must* constructor: panicking on bad input is its documented contract
	}
	return g
}

// Permute returns the graph of the permuted matrix: rowPerm and colPerm map
// new position → original index (the convention of dmperm.Decomposition),
// so edge (x, y) of g becomes (rowPos[x], colPos[y]) in the result. Both
// permutations must be bijections of the respective vertex sets.
func Permute(g *Graph, rowPerm, colPerm []int32) (*Graph, error) {
	if int32(len(rowPerm)) != g.NX() || int32(len(colPerm)) != g.NY() {
		return nil, fmt.Errorf("bipartite: permutation sizes (%d,%d) do not match graph (%d,%d)",
			len(rowPerm), len(colPerm), g.NX(), g.NY())
	}
	rowPos := make([]int32, g.NX())
	for i := range rowPos {
		rowPos[i] = None
	}
	for pos, x := range rowPerm {
		if x < 0 || x >= g.NX() || rowPos[x] != None {
			return nil, fmt.Errorf("bipartite: rowPerm is not a bijection at position %d", pos)
		}
		rowPos[x] = int32(pos)
	}
	colPos := make([]int32, g.NY())
	for i := range colPos {
		colPos[i] = None
	}
	for pos, y := range colPerm {
		if y < 0 || y >= g.NY() || colPos[y] != None {
			return nil, fmt.Errorf("bipartite: colPerm is not a bijection at position %d", pos)
		}
		colPos[y] = int32(pos)
	}
	b := NewBuilder(g.NX(), g.NY())
	b.Reserve(int(g.NumEdges()))
	for x := int32(0); x < g.NX(); x++ {
		for _, y := range g.NbrX(x) {
			if err := b.AddEdge(rowPos[x], colPos[y]); err != nil {
				return nil, err
			}
		}
	}
	return b.Build(), nil
}
