package matching

import (
	"errors"
	"fmt"

	"graftmatch/internal/bipartite"
)

// ErrNotMaximum is VerifyMaximum's answer for a valid matching with an
// augmenting path.
var ErrNotMaximum = errors.New("matching: not maximum: an augmenting path exists")

// VerifyMaximum proves that a valid matching m of g is of maximum
// cardinality. It runs the alternating-reachability BFS from all unmatched X
// vertices; by Berge's theorem m is maximum iff no unmatched Y vertex is
// reached. It additionally extracts the König minimum vertex cover
// (X \ reachedX) ∪ reachedY and checks |cover| == |M|, giving an
// independent certificate.
func VerifyMaximum(g *bipartite.Graph, m *Matching) error {
	if err := m.Verify(g); err != nil {
		return err
	}
	reachedX, reachedY, foundAug := AlternatingReach(g, m)
	if foundAug {
		return ErrNotMaximum
	}
	// König: cover = (X not reached) ∪ (Y reached).
	var cover int64
	for x := int32(0); x < g.NX(); x++ {
		if !reachedX[x] {
			cover++
		}
	}
	for y := int32(0); y < g.NY(); y++ {
		if reachedY[y] {
			cover++
		}
	}
	if card := m.Cardinality(); cover != card {
		return fmt.Errorf("matching: König certificate failed: |cover|=%d, |M|=%d", cover, card)
	}
	// The cover must actually cover every edge.
	for x := int32(0); x < g.NX(); x++ {
		if !reachedX[x] {
			continue // x is in the cover; its edges are covered
		}
		for _, y := range g.NbrX(x) {
			if !reachedY[y] {
				return fmt.Errorf("matching: edge (%d,%d) not covered by König cover", x, y)
			}
		}
	}
	return nil
}

// AlternatingReach performs a BFS over M-alternating paths from every
// unmatched X vertex: X→Y via unmatched edges, Y→X via matched edges. It
// returns the reached vertex sets and whether an unmatched Y vertex (an
// augmenting path endpoint) was reached.
func AlternatingReach(g *bipartite.Graph, m *Matching) (reachedX, reachedY []bool, foundAug bool) {
	reachedX = make([]bool, g.NX())
	reachedY = make([]bool, g.NY())
	frontier := make([]int32, 0, g.NX())
	for x := int32(0); x < g.NX(); x++ {
		if m.MateX[x] == None {
			reachedX[x] = true
			frontier = append(frontier, x)
		}
	}
	next := make([]int32, 0, len(frontier))
	for len(frontier) > 0 {
		next = next[:0]
		for _, x := range frontier {
			for _, y := range g.NbrX(x) {
				if reachedY[y] {
					continue
				}
				reachedY[y] = true
				x2 := m.MateY[y]
				if x2 == None {
					foundAug = true
					continue
				}
				if !reachedX[x2] {
					reachedX[x2] = true
					next = append(next, x2)
				}
			}
		}
		frontier, next = next, frontier
	}
	return reachedX, reachedY, foundAug
}

// MinVertexCover returns the König minimum vertex cover derived from a
// maximum matching m: coverX[x] / coverY[y] mark covered vertices. The
// caller is responsible for m being maximum (see VerifyMaximum).
func MinVertexCover(g *bipartite.Graph, m *Matching) (coverX, coverY []bool) {
	reachedX, reachedY, _ := AlternatingReach(g, m)
	coverX = make([]bool, g.NX())
	coverY = make([]bool, g.NY())
	for x := range reachedX {
		coverX[x] = !reachedX[x]
	}
	copy(coverY, reachedY)
	return coverX, coverY
}
