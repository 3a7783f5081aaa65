// Package exps contains the experiment drivers that regenerate every table
// and figure of the paper's evaluation (§IV–V) on the synthetic graph suite
// standing in for the University of Florida collection instances (see
// DESIGN.md for the substitution rationale and EXPERIMENTS.md for measured
// results).
package exps

import (
	"fmt"

	"graftmatch/internal/bipartite"
	"graftmatch/internal/gen"
)

// Class groups instances the way Table II does.
type Class int

// The paper's three input classes (§IV-B).
const (
	// Scientific covers scientific computing and road network matrices:
	// low degree, high diameter, matching number ≈ 1.
	Scientific Class = iota
	// ScaleFree covers RMAT and citation/co-purchase/co-author graphs:
	// skewed degrees, low diameter.
	ScaleFree
	// Networks covers web crawls and hyperlink graphs with LOW matching
	// number — the class where tree grafting pays off most.
	Networks
)

// String names the class as the paper does.
func (c Class) String() string {
	switch c {
	case Scientific:
		return "scientific"
	case ScaleFree:
		return "scale-free"
	case Networks:
		return "networks"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Instance is one suite graph: a seeded synthetic stand-in for a named
// paper input.
type Instance struct {
	// Name is the paper's graph name this instance stands in for.
	Name string
	// Class is the Table II grouping.
	Class Class
	// Graph is the generated instance.
	Graph *bipartite.Graph
}

// Scale selects suite sizes. Small keeps unit tests fast; Medium is the
// default for benchmarks; Large approaches the paper's instance sizes.
type Scale int

// Suite scales.
const (
	Small Scale = iota
	Medium
	Large
)

// factor returns the linear size multiplier of a scale.
func (s Scale) factor() int32 {
	switch s {
	case Small:
		return 1
	case Medium:
		return 4
	default:
		return 16
	}
}

// scaleAdd returns the RMAT scale increment of a Scale (log2 of factor).
func (s Scale) scaleAdd() int {
	switch s {
	case Small:
		return 0
	case Medium:
		return 2
	default:
		return 4
	}
}

// Suite generates the full graph suite at the given scale. Instances are
// deterministic: the same scale always yields the same graphs.
func Suite(sc Scale) []Instance {
	f := sc.factor()
	sa := sc.scaleAdd()
	return []Instance{
		// Class 1: scientific computing & road networks. Diagonals are
		// stripped: KKT saddle-point matrices have structurally zero
		// diagonal blocks and road networks are adjacency matrices, and a
		// guaranteed diagonal would make the initializer trivially optimal.
		{"kkt_power", Scientific, gen.StripDiagonal(gen.Banded(3000*f, 4, 0.6, 101))},
		{"hugetrace", Scientific, gen.StripDiagonal(gen.Mesh(55*f, 55*f, 102))},
		{"delaunay_n24", Scientific, gen.StripDiagonal(gen.Mesh(50*f, 60*f, 103))},
		{"road_usa", Scientific, gen.StripDiagonal(gen.RoadNet(60*f, 60*f, 0.85, 104))},

		// Class 2: scale-free graphs.
		{"amazon0312", ScaleFree, gen.ScaleFree(3000*f, 3000*f, 4, 105)},
		{"cit-patents", ScaleFree, gen.ScaleFree(3500*f, 3500*f, 5, 106)},
		{"coPapersDBLP", ScaleFree, gen.ScaleFree(2500*f, 2500*f, 8, 107)},
		{"RMAT", ScaleFree, gen.RMAT(11+sa, 8, 0.57, 0.19, 0.19, 108)},

		// Class 3: web & other networks with low matching number.
		{"wikipedia", Networks, gen.WebLike(11+sa, 5, 0.35, 109)},
		{"web-Google", Networks, gen.WebLike(11+sa, 6, 0.30, 110)},
		{"wb-edu", Networks, gen.WebLike(11+sa, 7, 0.40, 111)},
		{"rank-deficient", Networks, gen.RankDeficient(4000*f, 4000*f, 1300*f, 3, 112)},
	}
}

// Fig1Suite returns the three graphs of Fig. 1 (one per class:
// kkt_power, cit-patents, wikipedia).
func Fig1Suite(sc Scale) []Instance {
	var out []Instance
	for _, inst := range Suite(sc) {
		switch inst.Name {
		case "kkt_power", "cit-patents", "wikipedia":
			out = append(out, inst)
		}
	}
	return out
}

// ByName returns the named suite instance, or false.
func ByName(sc Scale, name string) (Instance, bool) {
	for _, inst := range Suite(sc) {
		if inst.Name == name {
			return inst, true
		}
	}
	return Instance{}, false
}

// Names returns the suite instance names in order.
func Names(sc Scale) []string {
	insts := Suite(sc)
	names := make([]string, len(insts))
	for i, inst := range insts {
		names[i] = inst.Name
	}
	return names
}

// Classes returns the distinct classes in display order.
func Classes() []Class { return []Class{Scientific, ScaleFree, Networks} }
