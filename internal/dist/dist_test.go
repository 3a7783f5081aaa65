package dist

import (
	"context"
	"runtime"
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

func TestPartitionCoversAllVertices(t *testing.T) {
	for _, k := range []int{1, 2, 3, 7, 16, 100} {
		for _, n := range []int32{0, 1, 5, 100, 101} {
			p := NewPartition(k, n, n)
			// Ranges tile [0, n) exactly.
			var covered int32
			for r := 0; r < p.K; r++ {
				lo, hi := p.RangeX(r)
				if lo > hi {
					t.Fatalf("k=%d n=%d r=%d: lo %d > hi %d", k, n, r, lo, hi)
				}
				covered += hi - lo
				for v := lo; v < hi; v++ {
					if p.OwnerX(v) != r {
						t.Fatalf("k=%d n=%d: vertex %d in range of %d but owned by %d", k, n, v, r, p.OwnerX(v))
					}
				}
			}
			if covered != n {
				t.Fatalf("k=%d n=%d: covered %d", k, n, covered)
			}
		}
	}
}

func TestPartitionOwnerInRange(t *testing.T) {
	f := func(kRaw uint8, nRaw uint16, vRaw uint16) bool {
		k := int(kRaw%32) + 1
		n := int32(nRaw) + 1
		v := int32(vRaw) % n
		p := NewPartition(k, n, n)
		o := p.OwnerX(v)
		lo, hi := p.RangeX(o)
		return o >= 0 && o < k && v >= lo && v < hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func distSuite() map[string]*bipartite.Graph {
	return map[string]*bipartite.Graph{
		"empty":     bipartite.MustFromEdges(0, 0, nil),
		"no-edges":  bipartite.MustFromEdges(4, 4, nil),
		"single":    bipartite.MustFromEdges(1, 1, []bipartite.Edge{{X: 0, Y: 0}}),
		"path":      bipartite.MustFromEdges(3, 3, []bipartite.Edge{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 2, Y: 1}, {X: 2, Y: 2}}),
		"er":        gen.ER(200, 180, 800, 1),
		"grid":      gen.StripDiagonal(gen.Grid(12, 12)),
		"weblike":   gen.WebLike(9, 5, 0.35, 2),
		"deficient": gen.RankDeficient(300, 300, 100, 3, 3),
		"rmat":      gen.RMAT(8, 8, 0.57, 0.19, 0.19, 4),
	}
}

// TestDistMatchesShared: the distributed engine must reach the same
// (maximum) cardinality as the reference across rank counts, with and
// without grafting, from both empty and greedy initial matchings.
func TestDistMatchesShared(t *testing.T) {
	for name, g := range distSuite() {
		ref := matching.New(g.NX(), g.NY())
		hk.Run(g, ref)
		want := ref.Cardinality()
		for _, k := range []int{1, 2, 4, 9} {
			for _, grafting := range []bool{false, true} {
				m := matchinit.Greedy(g)
				Run(g, m, Options{Ranks: k, Grafting: grafting})
				if m.Cardinality() != want {
					t.Fatalf("%s k=%d graft=%v: %d, want %d", name, k, grafting, m.Cardinality(), want)
				}
				if err := matching.VerifyMaximum(g, m); err != nil {
					t.Fatalf("%s k=%d graft=%v: %v", name, k, grafting, err)
				}
			}
		}
	}
}

// TestDeterministicAcrossSchedulers: the BSP exchange is deterministic, so
// two runs with the same rank count must produce identical mate arrays even
// though supersteps execute on different goroutines: one at GOMAXPROCS 1,
// where every round runs its ranks serially, and one at GOMAXPROCS 4.
func TestDeterministicAcrossSchedulers(t *testing.T) {
	g := gen.ER(300, 300, 1200, 7)
	a := matchinit.Greedy(g)
	b := matchinit.Greedy(g)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sa := Run(g, a, Options{Ranks: 4, Grafting: true})
	runtime.GOMAXPROCS(4)
	sb := Run(g, b, Options{Ranks: 4, Grafting: true})
	for i := range a.MateX {
		if a.MateX[i] != b.MateX[i] {
			t.Fatal("distributed run not deterministic")
		}
	}
	if sa.Messages != sb.Messages || sa.Supersteps != sb.Supersteps {
		t.Fatalf("cost model not deterministic: %+v vs %+v",
			sa.Messages, sb.Messages)
	}
}

func TestStatsAccounting(t *testing.T) {
	g := gen.WebLike(9, 5, 0.35, 5)
	m := matching.New(g.NX(), g.NY())
	s := Run(g, m, Options{Ranks: 4, Grafting: true})
	if s.Supersteps == 0 || s.Messages == 0 || s.Phases == 0 {
		t.Fatalf("missing accounting: %+v", s)
	}
	if s.Ranks != 4 || s.Algorithm != "Dist-MS-BFS-Graft" {
		t.Fatalf("header: %+v", s)
	}
	if s.FinalCardinality != m.Cardinality() {
		t.Fatal("cardinality mismatch")
	}
	if s.AugPaths != s.FinalCardinality {
		t.Fatalf("from empty matching, paths %d must equal |M| %d", s.AugPaths, s.FinalCardinality)
	}
}

// TestGraftingReducesClaimTraffic: on a multi-phase instance, grafting
// should not increase total claim traffic dramatically, and must engage.
func TestGraftingEngages(t *testing.T) {
	g := gen.WebLike(10, 5, 0.35, 6)
	m := matchinit.Greedy(g)
	s := Run(g, m, Options{Ranks: 4, Grafting: true})
	if s.Grafts == 0 {
		t.Fatalf("grafting never engaged: %+v", s)
	}
}

// TestMoreRanksThanVertices exercises the degenerate partition.
func TestMoreRanksThanVertices(t *testing.T) {
	g := bipartite.MustFromEdges(2, 2, []bipartite.Edge{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}})
	m := matching.New(2, 2)
	Run(g, m, Options{Ranks: 16, Grafting: true})
	if m.Cardinality() != 2 {
		t.Fatalf("cardinality %d, want 2", m.Cardinality())
	}
}

// pathGraph is the path X0–Y0–X1–Y1–…–X(n-1)–Y(n-1), and pathMatching
// matches X(i+1)–Y(i), so the one augmenting path runs the whole length.
func pathGraph(n int32) *bipartite.Graph {
	var edges []bipartite.Edge
	for i := int32(0); i < n; i++ {
		edges = append(edges, bipartite.Edge{X: i, Y: i})
		if i+1 < n {
			edges = append(edges, bipartite.Edge{X: i + 1, Y: i})
		}
	}
	return bipartite.MustFromEdges(n, n, edges)
}

func pathMatching(n int32) *matching.Matching {
	m := matching.New(n, n)
	for i := int32(0); i+1 < n; i++ {
		m.Match(i+1, i)
	}
	return m
}

// TestSuperstepsScaleWithPathLength: a long path graph needs supersteps
// proportional to its depth (the latency cost the paper's intro warns about
// for long augmenting paths). The cost is the BFS: three rounds per level.
// The walk back along the path costs one round per change of owner, not one
// per hop (TestAugmentWalkRoundsPerOwnerChange).
func TestSuperstepsScaleWithPathLength(t *testing.T) {
	sShort := Run(pathGraph(8), pathMatching(8), Options{Ranks: 4})
	sLong := Run(pathGraph(256), pathMatching(256), Options{Ranks: 4})
	if sLong.Supersteps <= sShort.Supersteps {
		t.Fatalf("superstep count insensitive to path length: %d vs %d",
			sLong.Supersteps, sShort.Supersteps)
	}
}

// augStepCounter counts the aug-step rounds a runtime runs.
type augStepCounter struct {
	superstepper
	rounds int64
}

func (c *augStepCounter) round(ctx context.Context, op byte) ([2]int64, int64, error) {
	if op == opAugStep {
		c.rounds++
	}
	return c.superstepper.round(ctx, op)
}

// TestAugmentWalkRoundsPerOwnerChange: a rank carries a walk for as long as
// it owns the walk's next vertex, so the 512-hop walk of the 256-vertex path
// takes one aug-step round per change of owner. Under the block partition
// the walk runs from Y255 (on the last rank) down to X0 (on rank 0), so at K
// ranks it changes owner K-1 times on the way plus once at aug-init, when the
// root's rank hands the walk to the leaf's; K=1 needs no aug-step round at
// all.
func TestAugmentWalkRoundsPerOwnerChange(t *testing.T) {
	const n = 256
	g := pathGraph(n)
	for _, k := range []int{1, 2, 4} {
		e := New(g, Options{Ranks: k})
		e.stats.Stats = &matching.Stats{}
		m := pathMatching(n)
		e.scatter(m)
		rt := &augStepCounter{superstepper: e}
		if err := runPhases(context.Background(), rt, &e.stats, e.opts.Grafting, e.opts.Alpha); err != nil {
			t.Fatal(err)
		}
		e.gather(m)
		if rt.rounds > int64(k) {
			t.Errorf("K=%d: %d aug-step rounds, want at most %d (one per change of owner)", k, rt.rounds, k)
		}
		if err := matching.VerifyMaximum(g, m); err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		t.Logf("K=%d: %d aug-step rounds, %d supersteps", k, rt.rounds, e.stats.Supersteps)
	}
}

// TestGraftingSuperstepTradeoff pins the distributed trade-off shown by
// examples/distributed on its exact (deterministic) instance: grafting
// reduces supersteps (network rounds) and pays with extra messages. The
// direction of the trade-off is instance-dependent in general — on smaller
// webs the extra graft exchanges outweigh the saved rebuild rounds — so
// this is a regression pin on one instance, not a universal law.
func TestGraftingSuperstepTradeoff(t *testing.T) {
	if testing.Short() {
		t.Skip("medium instance")
	}
	g := gen.WebLike(13, 5, 0.35, 7)
	mA := matchinit.Greedy(g)
	noGraft := Run(g, mA, Options{Ranks: 4})
	mB := matchinit.Greedy(g)
	graft := Run(g, mB, Options{Ranks: 4, Grafting: true})
	if graft.FinalCardinality != noGraft.FinalCardinality {
		t.Fatalf("cardinality %d vs %d", graft.FinalCardinality, noGraft.FinalCardinality)
	}
	if graft.Grafts == 0 {
		t.Fatal("grafting never engaged on the pinned instance")
	}
	if graft.Supersteps >= noGraft.Supersteps {
		t.Errorf("grafting no longer reduces supersteps on the pinned instance: %d vs %d",
			graft.Supersteps, noGraft.Supersteps)
	}
	if graft.Messages <= noGraft.Messages {
		t.Errorf("expected grafting to cost extra messages: %d vs %d",
			graft.Messages, noGraft.Messages)
	}
}

// TestPartitionRangeYConsistency mirrors the X-side range test on Y.
func TestPartitionRangeYConsistency(t *testing.T) {
	p := NewPartition(5, 13, 31)
	var covered int32
	for r := 0; r < p.K; r++ {
		lo, hi := p.RangeY(r)
		covered += hi - lo
		for v := lo; v < hi; v++ {
			if p.OwnerY(v) != r {
				t.Fatalf("y=%d owned by %d, in range of %d", v, p.OwnerY(v), r)
			}
		}
	}
	if covered != 31 {
		t.Fatalf("covered %d", covered)
	}
}

// TestRunCtxCompletes: with a live context RunCtx must match Run exactly —
// maximum cardinality, Complete=true, nil error.
func TestRunCtxCompletes(t *testing.T) {
	g := gen.WebLike(9, 5, 0.35, 2)
	ref := matching.New(g.NX(), g.NY())
	hk.Run(g, ref)
	m := matchinit.Greedy(g)
	s, err := RunCtx(context.Background(), g, m, Options{Ranks: 4, Grafting: true})
	if err != nil {
		t.Fatalf("RunCtx: %v", err)
	}
	if !s.Complete {
		t.Fatal("Complete=false on an uncancelled run")
	}
	if m.Cardinality() != ref.Cardinality() {
		t.Fatalf("cardinality %d, want %d", m.Cardinality(), ref.Cardinality())
	}
}

// TestRunCtxAlreadyCancelled: an expired context stops the engine at the
// first superstep boundary; the gathered matching must still be a valid
// matching no smaller than the initial one, with Complete=false.
func TestRunCtxAlreadyCancelled(t *testing.T) {
	g := gen.ER(200, 180, 800, 1)
	m := matchinit.Greedy(g)
	initial := m.Cardinality()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := RunCtx(ctx, g, m, Options{Ranks: 4, Grafting: true})
	if err == nil {
		t.Fatal("RunCtx returned nil error under a cancelled context")
	}
	if s.Complete {
		t.Fatal("Complete=true on a cancelled run")
	}
	if err := m.Verify(g); err != nil {
		t.Fatalf("partial matching invalid: %v", err)
	}
	if m.Cardinality() < initial {
		t.Fatalf("cancellation shrank the matching: %d < %d", m.Cardinality(), initial)
	}
}

// TestRunCtxNilContext: a nil context behaves as context.Background.
func TestRunCtxNilContext(t *testing.T) {
	g := bipartite.MustFromEdges(1, 1, []bipartite.Edge{{X: 0, Y: 0}})
	m := matching.New(1, 1)
	s, err := RunCtx(nil, g, m, Options{Ranks: 2}) //nolint:staticcheck // nil-tolerance is part of the contract under test
	if err != nil || !s.Complete {
		t.Fatalf("nil ctx: err=%v complete=%v", err, s.Complete)
	}
	if m.Cardinality() != 1 {
		t.Fatalf("cardinality %d, want 1", m.Cardinality())
	}
}
