package core

import (
	"fmt"
	"slices"
	"testing"

	"graftmatch/internal/bipartite"
	"graftmatch/internal/gen"
	"graftmatch/internal/matching"
	"graftmatch/internal/matchinit"
)

// checkForestInvariants verifies the structural invariants of the
// alternating BFS forest at a phase boundary — after the BFS, or after the
// graft or rebuild that seeds the next one (§III-B):
//
//  1. every visited Y (its root set) has a parent that is a real edge;
//  2. following parent/mate pointers from any visited Y reaches its root
//     along a valid alternating path, and root[] agrees along the way;
//  3. roots are unmatched X vertices (root[x] = x);
//  4. leaf[r] (when set) is an unmatched visited Y vertex in r's tree.
//
// Vertex-disjointness holds by construction (each Y has one parent slot,
// each matched X is reachable only via its unique mate), and the walk in
// (2) would diverge if it were violated.
func checkForestInvariants(t *testing.T, e *engine) {
	t.Helper()
	g := e.g
	for yi := 0; yi < int(g.NY()); yi++ {
		y := int32(yi)
		root := e.rootY[y]
		if root == none {
			continue
		}
		x := e.parentY[y]
		if x == none {
			t.Fatalf("visited y=%d has no parent", y)
		}
		if !g.HasEdge(x, y) {
			t.Fatalf("parent edge (%d,%d) does not exist", x, y)
		}
		// Walk y → root via parent/mate pointers, bounded by 2n hops.
		cur := y
		for hop := 0; ; hop++ {
			if hop > 2*int(g.NX())+2 {
				t.Fatalf("parent chain from y=%d does not terminate", y)
			}
			px := e.parentY[cur]
			if !g.HasEdge(px, cur) {
				t.Fatalf("chain edge (%d,%d) does not exist", px, cur)
			}
			if e.rootX[px] != root {
				t.Fatalf("root mismatch on chain from y=%d: rootX[%d]=%d, want %d", y, px, e.rootX[px], root)
			}
			if px == root {
				if e.m.MateX[px] != none {
					t.Fatalf("root %d is matched", px)
				}
				break
			}
			mateY := e.m.MateX[px]
			if mateY == none {
				t.Fatalf("interior X %d on chain from y=%d is unmatched but not the root", px, y)
			}
			if e.rootY[mateY] != root {
				t.Fatalf("mate y=%d of interior x=%d has root %d, want %d", mateY, px, e.rootY[mateY], root)
			}
			cur = mateY
		}
	}
	// Roots and leaves.
	for xi := 0; xi < int(g.NX()); xi++ {
		x := int32(xi)
		if e.m.MateX[x] == none && e.rootX[x] != none && e.rootX[x] != x {
			t.Fatalf("unmatched x=%d sits in tree rooted at %d", x, e.rootX[x])
		}
		if e.rootX[x] != x || e.m.MateX[x] != none {
			continue
		}
		if leaf := e.leaf[x]; leaf != none {
			if e.m.MateY[leaf] != none {
				t.Fatalf("leaf[%d]=%d is matched", x, leaf)
			}
			if e.rootY[leaf] != x {
				t.Fatalf("leaf[%d]=%d belongs to tree %d", x, leaf, e.rootY[leaf])
			}
		}
	}
}

// checkRenewableBookkeeping verifies the state that lets augment and the
// census skip sweeping X, at a phase boundary:
//
//  1. renewRoots holds, without duplicates, exactly the roots of the
//     renewable trees not yet augmented: {x : mateX[x] = none,
//     rootX[x] = x, leaf[x] ≠ none};
//  2. the tracked cardinality equals |M|;
//  3. every active Y (its root's leaf unset) is matched;
//  4. the active X count equals the active unmatched roots plus |activeY|,
//     the identity graftStep derives |activeX| from.
func checkRenewableBookkeeping(t *testing.T, e *engine) {
	t.Helper()
	mateX, mateY := e.m.MateX, e.m.MateY
	listed := make(map[int32]bool)
	for _, x := range e.renewRoots.Slice() {
		if listed[x] {
			t.Fatalf("root %d listed twice in renewRoots", x)
		}
		listed[x] = true
	}
	var activeX, activeRoots, activeY int64
	for xi := range mateX {
		x := int32(xi)
		renewable := mateX[x] == none && e.rootX[x] == x && e.leaf[x] != none
		if renewable != listed[x] {
			t.Fatalf("x=%d: renewable root %v, listed in renewRoots %v", x, renewable, listed[x])
		}
		if r := e.rootX[x]; r != none && e.leaf[r] == none {
			activeX++
			if mateX[x] == none {
				activeRoots++
			}
		}
	}
	if got, want := e.cardinality(), e.m.Cardinality(); got != want {
		t.Fatalf("tracked cardinality %d, want %d", got, want)
	}
	for yi, r := range e.rootY {
		if r == none || e.leaf[r] != none {
			continue
		}
		activeY++
		if mateY[yi] == none {
			t.Fatalf("active y=%d (tree %d) is unmatched", yi, r)
		}
	}
	if activeX != activeRoots+activeY {
		t.Fatalf("active X = %d, want %d unmatched roots + %d active Y", activeX, activeRoots, activeY)
	}
}

// checkUnvisited verifies the direction heuristic's inputs at a phase
// boundary: unvisitedY counts the unvisited Y vertices and, while the engine
// keeps it, unvisitedYEdges is their degree sum. It reports whether the
// degree sum was checked.
func checkUnvisited(t *testing.T, e *engine) bool {
	t.Helper()
	var n, deg int64
	for y, r := range e.rootY {
		if r == none {
			n++
			deg += e.g.DegY(int32(y))
		}
	}
	if n != e.unvisitedY {
		t.Fatalf("unvisitedY %d, want %d", e.unvisitedY, n)
	}
	if !e.keepsDegrees() {
		return false
	}
	if deg != e.unvisitedYEdges {
		t.Fatalf("unvisitedYEdges %d, want the degree sum %d of the %d unvisited Y", e.unvisitedYEdges, deg, n)
	}
	return true
}

// TestPhaseInvariants runs the engine with the white-box hook installed and
// validates the forest, the renewable bookkeeping and the unvisited-Y counts
// at every phase boundary, across option combinations (serial, and the full
// algorithm at two threads) and graph classes.
func TestPhaseInvariants(t *testing.T) {
	defer func() { phaseHook = nil }()

	optionCases := []struct {
		name string
		opts Options
	}{
		{"plain", Options{Threads: 1}.Defaults()},
		{"diropt", Options{Threads: 1, DirectionOptimized: true}.Defaults()},
		// α = 2 keeps the degree sums through a rebuild of grid-30 that
		// resets active trees.
		{"diropt-alpha2", Options{Threads: 1, DirectionOptimized: true, Alpha: 2}.Defaults()},
		{"graft", Options{Threads: 1, Grafting: true}.Defaults()},
		{"full", FullOptions(1)},
		{"full-p2", FullOptions(2)},
	}

	graphCases := []struct {
		name string
		mk   func() (*bipartite.Graph, *matching.Matching)
	}{
		{"er", func() (*bipartite.Graph, *matching.Matching) {
			g := gen.ER(150, 150, 550, 41)
			return g, matchinit.Greedy(g)
		}},
		{"weblike", func() (*bipartite.Graph, *matching.Matching) {
			g := gen.WebLike(8, 5, 0.35, 42)
			return g, matchinit.Greedy(g)
		}},
		{"grid", func() (*bipartite.Graph, *matching.Matching) {
			g := gen.StripDiagonal(gen.Grid(12, 12))
			return g, matchinit.KarpSipser(g, 1)
		}},
		{"grid-30", func() (*bipartite.Graph, *matching.Matching) {
			g := gen.StripDiagonal(gen.Grid(30, 30))
			return g, matchinit.KarpSipser(g, 1)
		}},
		{"empty-init", func() (*bipartite.Graph, *matching.Matching) {
			g := gen.ScaleFree(200, 200, 4, 43)
			return g, matching.New(g.NX(), g.NY())
		}},
	}

	// The trip-wire often fires in the first BFS, so each option set with
	// direction optimization needs only one graph whose hook sees the sum.
	degChecks := map[string]int{}
	for _, oc := range optionCases {
		for _, gc := range graphCases {
			t.Run(fmt.Sprintf("%s/%s", oc.name, gc.name), func(t *testing.T) {
				fired := 0
				phaseHook = func(e *engine) {
					fired++
					checkForestInvariants(t, e)
					checkRenewableBookkeeping(t, e)
					if checkUnvisited(t, e) {
						degChecks[oc.name]++
					}
				}
				defer func() { phaseHook = nil }()
				g, m := gc.mk()
				Run(g, m, oc.opts)
				if fired == 0 {
					t.Fatal("hook never fired")
				}
				if err := matching.VerifyMaximum(g, m); err != nil {
					t.Fatal(err)
				}
			})
		}
		if oc.opts.DirectionOptimized && degChecks[oc.name] == 0 {
			t.Errorf("%s: no phase boundary checked the unvisited degree sum", oc.name)
		}
	}
}

// TestFillOrder pins the ordered fills at p ≥ 2: after every graft or
// rebuild the census lists activeY and renewY are strictly increasing (the
// renewable list fixes the graft's adoption order), and after every rebuild
// the frontier holds exactly the unmatched X vertices in increasing order,
// as a serial sweep leaves them.
func TestFillOrder(t *testing.T) {
	defer func() { phaseHook = nil }()
	for _, p := range []int{2, 4} {
		for _, grafting := range []bool{false, true} {
			opts := Options{Threads: p, DirectionOptimized: true, Grafting: grafting}.Defaults()
			var grafts, rebuilds int64
			for seed := int64(1); seed <= 3; seed++ {
				g := gen.WebLike(14, 6, 0.30, seed)
				m := matchinit.Greedy(g)
				phaseHook = func(e *engine) {
					if e.stats.Grafts == grafts && e.stats.Rebuilds == rebuilds {
						return // the hook after a BFS
					}
					where := fmt.Sprintf("p=%d grafting=%v seed %d phase %d", p, grafting, seed, e.stats.Phases)
					checkIncreasing(t, where+" activeY", e.activeY.Slice())
					checkIncreasing(t, where+" renewY", e.renewY.Slice())
					if e.stats.Rebuilds > rebuilds {
						var want []int32
						for x, y := range e.m.MateX {
							if y == none {
								want = append(want, int32(x))
							}
						}
						if got := e.cur.Slice(); !slices.Equal(got, want) {
							t.Fatalf("%s: rebuilt frontier has %d vertices, want the %d unmatched X in order", where, len(got), len(want))
						}
					}
					grafts, rebuilds = e.stats.Grafts, e.stats.Rebuilds
				}
				st := Run(g, m, opts)
				if err := matching.VerifyMaximum(g, m); err != nil {
					t.Fatal(err)
				}
				grafts, rebuilds = 0, 0
				if grafting && st.Grafts == 0 || !grafting && st.Rebuilds == 0 {
					t.Fatalf("p=%d grafting=%v seed %d: %d grafts, %d rebuilds", p, grafting, seed, st.Grafts, st.Rebuilds)
				}
			}
		}
	}
}

func checkIncreasing(t *testing.T, what string, s []int32) {
	t.Helper()
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			t.Fatalf("%s: entry %d is %d after %d", what, i, s[i], s[i-1])
		}
	}
}
