package graftmatch_test

import (
	"math/rand"
	"sync"
	"testing"

	"graftmatch"
)

// randomGraph builds a connected-ish random bipartite instance.
func randomGraph(t *testing.T, nx, ny int32, deg int, seed int64) *graftmatch.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var edges []graftmatch.Edge
	for x := int32(0); x < nx; x++ {
		for d := 0; d < deg; d++ {
			edges = append(edges, graftmatch.Edge{X: x, Y: rng.Int31n(ny)})
		}
	}
	g, err := graftmatch.FromEdges(nx, ny, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestMatchWithSharedWorkerPool checks that every parallel algorithm run on a
// shared WorkerPool reaches the same maximum as the default spawn scheduler.
func TestMatchWithSharedWorkerPool(t *testing.T) {
	pool := graftmatch.NewWorkerPool(3)
	defer pool.Close()
	g := randomGraph(t, 400, 400, 3, 7)
	for _, alg := range []graftmatch.Algorithm{
		graftmatch.MSBFSGraft, graftmatch.PothenFan, graftmatch.PushRelabel,
	} {
		ref, err := graftmatch.Match(g, graftmatch.Options{Algorithm: alg, Threads: 4})
		if err != nil {
			t.Fatalf("%v spawn: %v", alg, err)
		}
		res, err := graftmatch.Match(g, graftmatch.Options{Algorithm: alg, Threads: 4, Pool: pool})
		if err != nil {
			t.Fatalf("%v pooled: %v", alg, err)
		}
		if res.Cardinality != ref.Cardinality || !res.Complete {
			t.Fatalf("%v pooled: |M|=%d complete=%v, want |M|=%d complete", alg, res.Cardinality, res.Complete, ref.Cardinality)
		}
		if err := graftmatch.VerifyMaximum(g, res.MateX, res.MateY); err != nil {
			t.Fatalf("%v pooled: %v", alg, err)
		}
	}
}

// TestConcurrentMatchesShareOnePool is the serving workload in miniature:
// many concurrent Match calls multiplexed over one small pool, each reaching
// its own verified maximum.
func TestConcurrentMatchesShareOnePool(t *testing.T) {
	pool := graftmatch.NewWorkerPool(2)
	defer pool.Close()
	const runs = 8
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := randomGraph(t, 300, 300, 3, int64(100+i))
			res, err := graftmatch.Match(g, graftmatch.Options{
				Algorithm: graftmatch.MSBFSGraft,
				Threads:   4,
				Pool:      pool,
			})
			if err != nil {
				t.Errorf("run %d: %v", i, err)
				return
			}
			if err := graftmatch.VerifyMaximum(g, res.MateX, res.MateY); err != nil {
				t.Errorf("run %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
}
