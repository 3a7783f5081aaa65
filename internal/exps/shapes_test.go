package exps

import (
	"testing"

	"graftmatch/internal/matching"
)

// These tests assert the paper's qualitative claims (the "shapes" recorded
// in EXPERIMENTS.md) on counter-based metrics, which are deterministic and
// host-independent — so the reproduction claims are locked in CI rather
// than only observed in benchmark output.

// TestShapeFig1bPhases: §II-D / Fig. 1(b) — MS algorithms need orders of
// magnitude fewer phases than SS algorithms on every Fig. 1 graph.
func TestShapeFig1bPhases(t *testing.T) {
	for _, inst := range Fig1Suite(Small) {
		ss := Run(AlgoSSBFS, inst.Graph, 1)
		ms := Run(AlgoMSBFS, inst.Graph, 1)
		if ms.Phases*10 > ss.Phases && ss.Phases > 20 {
			t.Errorf("%s: MS phases %d not ≪ SS phases %d", inst.Name, ms.Phases, ss.Phases)
		}
	}
}

// TestShapeFig1aSSBFSPrunesLowMatching: §II-C / Fig. 1(a) — on the
// low-matching-number graph, SS-BFS traverses fewer edges than the MS
// algorithms because failed trees are pruned permanently.
func TestShapeFig1aSSBFSPrunesLowMatching(t *testing.T) {
	inst, ok := ByName(Small, "wikipedia")
	if !ok {
		t.Fatal("wikipedia missing")
	}
	ss := Run(AlgoSSBFS, inst.Graph, 1)
	pf := Run(AlgoPF, inst.Graph, 1)
	if ss.EdgesTraversed > pf.EdgesTraversed {
		t.Errorf("SS-BFS traversed %d > PF %d on low-matching graph", ss.EdgesTraversed, pf.EdgesTraversed)
	}
}

// TestShapeFig1cPathLengths: Fig. 1(c) — DFS-based search finds longer
// augmenting paths than BFS-based search, and MS shorter than SS.
func TestShapeFig1cPathLengths(t *testing.T) {
	for _, inst := range Fig1Suite(Small) {
		ssdfs := Run(AlgoSSDFS, inst.Graph, 1)
		ssbfs := Run(AlgoSSBFS, inst.Graph, 1)
		msbfs := Run(AlgoMSBFS, inst.Graph, 1)
		if ssdfs.AugPaths == 0 {
			continue
		}
		if ssdfs.AvgAugPathLen() < ssbfs.AvgAugPathLen() {
			t.Errorf("%s: SS-DFS paths (%.1f) shorter than SS-BFS (%.1f)",
				inst.Name, ssdfs.AvgAugPathLen(), ssbfs.AvgAugPathLen())
		}
		if msbfs.AvgAugPathLen() > ssbfs.AvgAugPathLen()+1e-9 {
			t.Errorf("%s: MS-BFS paths (%.1f) longer than SS-BFS (%.1f)",
				inst.Name, msbfs.AvgAugPathLen(), ssbfs.AvgAugPathLen())
		}
	}
}

// TestShapeFig8FrontierEvolution: Fig. 8 — grafted phases start from their
// largest frontier (monotone shrink), ungrafted phases grow first.
func TestShapeFig8FrontierEvolution(t *testing.T) {
	inst, _ := ByName(Small, "coPapersDBLP")
	graft := RunTraced(AlgoGraft, inst.Graph, 1)
	plain := RunTraced(AlgoMSBFS, inst.Graph, 1)
	if len(graft.FrontierTrace) < 3 || len(plain.FrontierTrace) < 3 {
		t.Skip("instance solved in too few phases")
	}
	// Grafted phases after the first: first level is the phase's max.
	for pi, phase := range graft.FrontierTrace {
		if pi == 0 || len(phase) < 2 {
			continue
		}
		for _, sz := range phase[1:] {
			if sz > phase[0] {
				t.Errorf("graft phase %d: level grows %d -> %d", pi+1, phase[0], sz)
			}
		}
	}
	// Plain MS-BFS phases: some phase must grow beyond its first level.
	grew := false
	for _, phase := range plain.FrontierTrace {
		for _, sz := range phase[1:] {
			if sz > phase[0] {
				grew = true
			}
		}
	}
	if !grew {
		t.Error("MS-BFS frontiers never grew; rebuild signature missing")
	}
}

// TestShapeFig6Breakdown: Fig. 6 — high-matching instances concentrate time
// in BFS traversal; low-matching instances spend a visible share on
// augment+graft+census. A Small solve takes about 0.1 ms, so one scheduler
// hiccup can swing a single solve's split; the shares are taken over the
// step times summed across repeated solves.
func TestShapeFig6Breakdown(t *testing.T) {
	high, _ := ByName(Small, "hugetrace")
	low, _ := ByName(Small, "wb-edu")
	bfsShare := func(inst Instance) float64 {
		var sum matching.Stats
		for i := 0; i < 20; i++ {
			s := Run(AlgoGraft, inst.Graph, 1)
			for step, d := range s.StepTime {
				sum.AddStep(matching.Step(step), d)
			}
		}
		return sum.StepShare(matching.StepTopDown) + sum.StepShare(matching.StepBottomUp)
	}
	if share := bfsShare(high); share < 0.5 {
		t.Errorf("high-matching instance spends only %.0f%% in BFS", share*100)
	}
	if rest := 1 - bfsShare(low); rest < 0.2 {
		t.Errorf("low-matching instance spends only %.0f%% outside BFS", rest*100)
	}
}

// TestShapeGraftReducesTraversals: the core claim — on the scale-free class
// the grafting algorithm traverses at most as many edges as plain MS-BFS
// (it eliminates redundant reconstruction).
func TestShapeGraftReducesTraversals(t *testing.T) {
	inst, _ := ByName(Small, "coPapersDBLP")
	plain := Run(AlgoMSBFS, inst.Graph, 1)
	graft := Run(AlgoGraft, inst.Graph, 1)
	if graft.EdgesTraversed > plain.EdgesTraversed {
		t.Errorf("graft traversed %d > plain %d", graft.EdgesTraversed, plain.EdgesTraversed)
	}
}

// TestShapeTableIIClasses: the class gradient the whole evaluation pivots
// on — matching fraction scientific ≈ 1 > scale-free > networks.
func TestShapeTableIIClasses(t *testing.T) {
	frac := func(name string) float64 {
		inst, ok := ByName(Small, name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		s := Run(AlgoGraft, inst.Graph, 1)
		return float64(2*s.FinalCardinality) / float64(inst.Graph.NumVertices())
	}
	sci := frac("hugetrace")
	sf := frac("coPapersDBLP")
	net := frac("wikipedia")
	if !(sci > 0.9 && sci > sf && sf > net && net < 0.5) {
		t.Errorf("class gradient broken: sci=%.2f sf=%.2f net=%.2f", sci, sf, net)
	}
}
