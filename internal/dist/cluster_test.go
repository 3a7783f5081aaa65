package dist

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"graftmatch/internal/bipartite"
	"graftmatch/internal/checkpoint"
	distnet "graftmatch/internal/dist/net"
	"graftmatch/internal/gen"
	"graftmatch/internal/hk"
	"graftmatch/internal/matching"
	"graftmatch/internal/matchinit"
)

// refCardinality is the differential oracle: Hopcroft–Karp's maximum.
func refCardinality(g *bipartite.Graph) int64 {
	m := matching.New(g.NX(), g.NY())
	hk.Run(g, m)
	return m.Cardinality()
}

// testClusterOpts shrinks every failure-detection interval so death and
// recovery fit in test time: 25ms heartbeats, a 200ms lease.
func testClusterOpts() ClusterOptions {
	return ClusterOptions{
		Ranks:            4,
		Grafting:         true,
		Heartbeat:        25 * time.Millisecond,
		HandshakeTimeout: 500 * time.Millisecond,
	}
}

func testWorkerOpts(addr string, rank int, g *bipartite.Graph) WorkerOptions {
	return WorkerOptions{
		Addr:             addr,
		Rank:             rank,
		G:                g,
		HandshakeTimeout: 500 * time.Millisecond,
		JoinWait:         20 * time.Second,
	}
}

// startWorker launches RunWorker on its own goroutine; the error lands in
// errs (never t directly — workers may outlive a failing test body).
func startWorker(ctx context.Context, wg *sync.WaitGroup, errs chan<- error, opts WorkerOptions) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs <- RunWorker(ctx, opts)
	}()
}

// runCluster drives a full multi-process-shaped run — coordinator plus
// opts.Ranks goroutine workers over real sockets at addr — from the empty
// matching, and requires every worker to exit clean.
func runCluster(t *testing.T, g *bipartite.Graph, addr string, opts ClusterOptions) (*matching.Matching, ClusterStats) {
	t.Helper()
	m := matching.New(g.NX(), g.NY())
	return m, runClusterFrom(t, g, addr, opts, m)
}

// runClusterFrom is runCluster starting from (and updating) m.
func runClusterFrom(t *testing.T, g *bipartite.Graph, addr string, opts ClusterOptions, m *matching.Matching) ClusterStats {
	t.Helper()
	c, err := NewCoordinator(g, addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, opts.Ranks)
	for i := 0; i < opts.Ranks; i++ {
		startWorker(ctx, &wg, errs, testWorkerOpts(c.Addr(), -1, g))
	}
	s, err := c.Run(ctx, m)
	if err != nil {
		cancel()
		wg.Wait()
		t.Fatalf("cluster run: %v", err)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		if e != nil {
			t.Errorf("worker exited with error: %v", e)
		}
	}
	return s
}

// TestClusterMatchesEngine: the in-process Engine and a unix-socket cluster
// run one phase schedule (runPhases) over one set of rank ops, so from the
// same start they must reach the same mate arrays with the same counters.
// The superstep counts differ by design: the cluster adds one scatter round
// per epoch and one report-mates round per phase.
func TestClusterMatchesEngine(t *testing.T) {
	graphs := []struct {
		name string
		g    *bipartite.Graph
	}{
		{"er", gen.ER(400, 400, 1600, 21)},
		{"weblike", gen.WebLike(10, 6, 0.30, 5)},
		{"rmat", gen.RMAT(10, 8, 0.57, 0.19, 0.19, 7)},
	}
	type run struct {
		graph    int
		ranks    int
		greedy   bool
		grafting bool
	}
	var runs []run
	for gi := range graphs {
		for _, k := range []int{1, 2, 4} {
			for _, greedy := range []bool{false, true} {
				runs = append(runs, run{gi, k, greedy, true})
			}
		}
	}
	// Without grafting every phase but the last ends in a rebuild round.
	runs = append(runs, run{0, 2, false, false})

	// One short directory for every socket: subtest names would make the
	// path longer than a unix socket address allows on long temp dirs.
	dir := t.TempDir()
	for i, r := range runs {
		g := graphs[r.graph].g
		name := fmt.Sprintf("%s/k=%d/greedy=%v/graft=%v", graphs[r.graph].name, r.ranks, r.greedy, r.grafting)
		t.Run(name, func(t *testing.T) {
			start := func() *matching.Matching {
				if r.greedy {
					return matchinit.Greedy(g)
				}
				return matching.New(g.NX(), g.NY())
			}
			em := start()
			es := Run(g, em, Options{Ranks: r.ranks, Grafting: r.grafting})

			opts := testClusterOpts()
			opts.Ranks = r.ranks
			opts.Grafting = r.grafting
			cm := start()
			cs := runClusterFrom(t, g, filepath.Join(dir, fmt.Sprintf("%d.sock", i)), opts, cm)

			if !slices.Equal(em.MateX, cm.MateX) || !slices.Equal(em.MateY, cm.MateY) {
				t.Fatalf("mate arrays differ: engine |M|=%d, cluster |M|=%d", em.Cardinality(), cm.Cardinality())
			}
			for _, c := range []struct {
				name     string
				eng, clu int64
			}{
				{"phases", es.Phases, cs.Phases},
				{"edges", es.EdgesTraversed, cs.EdgesTraversed},
				{"augpaths", es.AugPaths, cs.AugPaths},
				{"grafts", es.Grafts, cs.Grafts},
				{"rebuilds", es.Rebuilds, cs.Rebuilds},
				{"messages", es.Messages, cs.Messages},
			} {
				if c.eng != c.clu {
					t.Errorf("%s: engine %d, cluster %d", c.name, c.eng, c.clu)
				}
			}
			if d := cs.Supersteps - es.Supersteps; d != 1+es.Phases {
				t.Errorf("supersteps: cluster %d − engine %d = %d, want 1 + %d phases", cs.Supersteps, es.Supersteps, d, es.Phases)
			}
			if !r.grafting && es.Phases > 1 && es.Rebuilds == 0 {
				t.Errorf("no rebuild round ran in %d phases", es.Phases)
			}
		})
	}
}

// TestClusterHappyPath: 4 workers over real TCP must reproduce the reference
// maximum and leave a phase-boundary checkpoint at the final cardinality.
func TestClusterHappyPath(t *testing.T) {
	g := gen.ER(400, 400, 1600, 21)
	want := refCardinality(g)
	dir := t.TempDir()
	opts := testClusterOpts()
	opts.CheckpointDir = dir

	m, s := runCluster(t, g, "127.0.0.1:0", opts)
	if err := matching.VerifyMaximum(g, m); err != nil {
		t.Fatal(err)
	}
	if m.Cardinality() != want {
		t.Fatalf("cardinality %d, want %d", m.Cardinality(), want)
	}
	if !s.Complete || s.Phases == 0 || s.Supersteps == 0 || s.Messages == 0 {
		t.Fatalf("implausible stats: %+v", s)
	}
	if s.Ranks != 4 {
		t.Fatalf("ranks %d, want 4", s.Ranks)
	}
	snap, _, err := checkpoint.LoadLatest(dir, checkpoint.GraphFingerprint(g))
	if err != nil {
		t.Fatalf("no checkpoint after run: %v", err)
	}
	if snap.Cardinality != want {
		t.Fatalf("checkpoint cardinality %d, want %d", snap.Cardinality, want)
	}
}

// TestClusterUnixSocket: the same protocol must run over unix domain sockets
// (the Network address heuristic picks them for path-shaped addrs).
func TestClusterUnixSocket(t *testing.T) {
	g := gen.ER(150, 150, 600, 3)
	want := refCardinality(g)
	opts := testClusterOpts()
	opts.Ranks = 2
	m, _ := runCluster(t, g, filepath.Join(t.TempDir(), "graft.sock"), opts)
	if m.Cardinality() != want {
		t.Fatalf("cardinality %d, want %d", m.Cardinality(), want)
	}
}

// runKillRespawn runs a 4-rank cluster over g from the empty matching and
// kills rank 2 at the first phase boundary: its worker's context is cut with
// no farewell, and opts.Respawn starts a replacement at once. It returns the
// matching, the stats, Run's wall time, and how many workers exited with an
// error.
func runKillRespawn(t *testing.T, g *bipartite.Graph, opts ClusterOptions) (*matching.Matching, ClusterStats, time.Duration, int) {
	t.Helper()
	const victim = 2

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	victimCtx, killVictim := context.WithCancel(ctx)
	defer killVictim()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	var addr string
	opts.Ranks = 4
	opts.Respawn = func(rank int) error {
		startWorker(ctx, &wg, errs, testWorkerOpts(addr, rank, g))
		return nil
	}
	var killOnce sync.Once
	opts.OnPhase = func(phase, card int64) {
		killOnce.Do(killVictim)
	}

	c, err := NewCoordinator(g, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addr = c.Addr()
	for i := 0; i < opts.Ranks; i++ {
		wctx := ctx
		if i == victim {
			wctx = victimCtx
		}
		startWorker(wctx, &wg, errs, testWorkerOpts(addr, i, g))
	}

	m := matching.New(g.NX(), g.NY())
	start := time.Now()
	s, err := c.Run(ctx, m)
	took := time.Since(start)
	if err != nil {
		cancel()
		wg.Wait()
		t.Fatalf("cluster run: %v", err)
	}
	wg.Wait()
	close(errs)
	var failed int
	for e := range errs {
		if e != nil {
			failed++
		}
	}
	return m, s, took, failed
}

// TestClusterKillRespawnRecovers is the headline fault drill: a rank dies
// mid-run (its process context is cut with no farewell), the coordinator
// detects the death by its lost connection, respawns the rank, rolls every
// rank back to the last phase-boundary matching, and still finishes with a
// verified maximum matching at the reference cardinality.
func TestClusterKillRespawnRecovers(t *testing.T) {
	g := gen.ER(500, 500, 1500, 33)
	want := refCardinality(g)
	m, s, _, failed := runKillRespawn(t, g, testClusterOpts())

	if failed != 1 {
		t.Errorf("%d workers exited with errors, want exactly the killed one", failed)
	}
	if s.RankDeaths != 1 || s.Recoveries != 1 {
		t.Errorf("deaths=%d recoveries=%d, want 1 and 1", s.RankDeaths, s.Recoveries)
	}
	if s.RecoveryTime <= 0 {
		t.Errorf("recovery time not recorded: %v", s.RecoveryTime)
	}
	if s.Phases < 2 {
		t.Fatalf("run finished in %d phases — the kill never hit a live run", s.Phases)
	}
	if err := matching.VerifyMaximum(g, m); err != nil {
		t.Fatal(err)
	}
	if m.Cardinality() != want {
		t.Fatalf("cardinality %d, want %d", m.Cardinality(), want)
	}
}

// TestRecoveryWaitsOnEvents: the kill-respawn drill at a 2 s heartbeat. The
// driver wakes when the dead rank's connection drops and again when its
// replacement joins, so neither the detection nor the rejoin waits out a
// heartbeat tick, and the whole run ends long before the first tick would.
func TestRecoveryWaitsOnEvents(t *testing.T) {
	g := gen.ER(500, 500, 1500, 33)
	want := refCardinality(g)
	opts := testClusterOpts()
	opts.Heartbeat = 2 * time.Second
	m, s, took, _ := runKillRespawn(t, g, opts)

	if took > 1500*time.Millisecond {
		t.Errorf("Run took %v, want under 1.5s: a wait is polling at the 2s heartbeat", took)
	}
	if s.RankDeaths != 1 {
		t.Errorf("deaths=%d, want 1", s.RankDeaths)
	}
	if s.RecoveryTime >= 500*time.Millisecond {
		t.Errorf("recovery took %v, want under 500ms: the rejoin wait is polling", s.RecoveryTime)
	}
	if m.Cardinality() != want {
		t.Fatalf("cardinality %d, want %d", m.Cardinality(), want)
	}
	t.Logf("Run %v, recovery %v", took, s.RecoveryTime)
}

// TestClusterChaosConverges: with every worker connected through a chaos
// proxy injecting per-frame latency and jitter, the run must still deliver
// a verified maximum matching.
func TestClusterChaosConverges(t *testing.T) {
	g := gen.ER(250, 250, 1000, 5)
	want := refCardinality(g)
	opts := testClusterOpts()
	// Heartbeats queue behind step frames in the proxy's serialized
	// per-frame latency, so the lease is generous here — and a Respawn
	// handler stands by in case a slow stretch still earns a rank a
	// (spurious but legitimate) death sentence.
	opts.Lease = time.Second
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var proxyAddr string
	opts.Respawn = func(rank int) error {
		startWorker(ctx, &wg, errs, testWorkerOpts(proxyAddr, rank, g))
		return nil
	}
	c, err := NewCoordinator(g, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	proxy, err := distnet.NewProxy(c.Addr(), distnet.Chaos{
		Seed:    9,
		Latency: 2 * time.Millisecond,
		Jitter:  3 * time.Millisecond,
	}, distnet.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	proxyAddr = proxy.Addr()

	for i := 0; i < 4; i++ {
		startWorker(ctx, &wg, errs, testWorkerOpts(proxyAddr, -1, g))
	}
	m := matching.New(g.NX(), g.NY())
	if _, err := c.Run(ctx, m); err != nil {
		cancel()
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Logf("worker error: %v", e)
		}
		t.Fatalf("cluster run under chaos: %v", err)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		if e == nil {
			continue
		}
		// A worker whose own lease expired during a congestion burst is the
		// failure detector working as designed, not a test failure.
		var pd *distnet.PeerDownError
		if !errors.As(e, &pd) {
			t.Errorf("worker exited with error: %v", e)
		}
	}

	if err := matching.VerifyMaximum(g, m); err != nil {
		t.Fatal(err)
	}
	if m.Cardinality() != want {
		t.Fatalf("cardinality %d, want %d", m.Cardinality(), want)
	}
	if ps := proxy.Stats(); ps.Forwarded == 0 {
		t.Errorf("no traffic crossed the chaos proxy: %+v", ps)
	}
}

// TestClusterSplitBrainMinorityAborts (the partition drill): a network
// partition isolates one rank of four. The minority side's lease expires and
// it aborts with a typed *net.PeerDownError rather than computing on; the
// majority side declares the rank dead, respawns it on the healed network,
// and completes a verified maximum matching — so no two processes ever both
// act as the same rank.
func TestClusterSplitBrainMinorityAborts(t *testing.T) {
	g := gen.ER(400, 400, 1200, 17)
	want := refCardinality(g)
	const victim = 3

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	var addr string
	var proxy *distnet.Proxy
	var partOnce sync.Once
	opts := testClusterOpts()
	opts.Respawn = func(rank int) error {
		startWorker(ctx, &wg, errs, testWorkerOpts(addr, rank, g))
		return nil
	}
	opts.OnPhase = func(phase, card int64) {
		partOnce.Do(func() { proxy.SetPartition(true) })
	}

	c, err := NewCoordinator(g, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addr = c.Addr()
	proxy, err = distnet.NewProxy(addr, distnet.Chaos{}, distnet.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	for i := 0; i < 4; i++ {
		waddr := addr
		if i == victim {
			waddr = proxy.Addr()
		}
		startWorker(ctx, &wg, errs, testWorkerOpts(waddr, i, g))
	}

	m := matching.New(g.NX(), g.NY())
	s, err := c.Run(ctx, m)
	if err != nil {
		cancel()
		wg.Wait()
		t.Fatalf("cluster run across partition: %v", err)
	}
	wg.Wait()
	close(errs)
	var aborted, other int
	for e := range errs {
		if e == nil {
			continue
		}
		var pd *distnet.PeerDownError
		if errors.As(e, &pd) {
			aborted++
		} else {
			other++
			t.Errorf("unexpected worker error: %v", e)
		}
	}

	if aborted != 1 {
		t.Errorf("%d minority aborts, want exactly 1 (the partitioned rank)", aborted)
	}
	if s.RankDeaths < 1 || s.Recoveries < 1 {
		t.Errorf("majority never recovered the partitioned rank: %+v", s)
	}
	if s.Phases < 2 {
		t.Fatalf("run finished in %d phases — the partition never hit a live run", s.Phases)
	}
	if err := matching.VerifyMaximum(g, m); err != nil {
		t.Fatal(err)
	}
	if m.Cardinality() != want {
		t.Fatalf("cardinality %d, want %d", m.Cardinality(), want)
	}
}

// TestClusterCheckpointResume: a second run over the same checkpoint
// directory must pick up the saved matching instead of starting over — one
// phase to confirm maximality and done.
func TestClusterCheckpointResume(t *testing.T) {
	g := gen.ER(300, 300, 1200, 7)
	want := refCardinality(g)
	dir := t.TempDir()
	opts := testClusterOpts()
	opts.Ranks = 2
	opts.CheckpointDir = dir

	_, s1 := runCluster(t, g, "127.0.0.1:0", opts)
	m2, s2 := runCluster(t, g, "127.0.0.1:0", opts)

	if m2.Cardinality() != want {
		t.Fatalf("resumed cardinality %d, want %d", m2.Cardinality(), want)
	}
	if s2.InitialCardinality != 0 {
		t.Fatalf("resume test needs an empty starting matching, got %d", s2.InitialCardinality)
	}
	if s1.Phases < 2 {
		t.Skipf("first run converged in %d phases; resume adds nothing to check", s1.Phases)
	}
	if s2.Phases != 1 {
		t.Errorf("resumed run took %d phases, want 1 (checkpoint already maximum)", s2.Phases)
	}
}

// TestWorkerExitsWithRun: a worker returns as soon as the run ends, not a
// lease later. At the default 500ms heartbeat the lease is 4s, which a
// worker waiting on its own helper goroutines used to sit out in full.
func TestWorkerExitsWithRun(t *testing.T) {
	g := gen.ER(200, 200, 800, 4)
	c, err := NewCoordinator(g, "127.0.0.1:0", ClusterOptions{Ranks: 2, Grafting: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	type exit struct {
		at  time.Time
		err error
	}
	exits := make(chan exit, 2)
	for i := 0; i < 2; i++ {
		go func() {
			err := RunWorker(ctx, WorkerOptions{Addr: c.Addr(), Rank: -1, G: g})
			exits <- exit{time.Now(), err}
		}()
	}
	if _, err := c.Run(ctx, matching.New(g.NX(), g.NY())); err != nil {
		t.Fatal(err)
	}
	runEnd := time.Now()
	for i := 0; i < 2; i++ {
		select {
		case e := <-exits:
			if e.err != nil {
				t.Errorf("worker: %v", e.err)
			}
			if d := e.at.Sub(runEnd); d > 250*time.Millisecond {
				t.Errorf("worker returned %v after Coordinator.Run, want within 250ms", d)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("worker still running 10s after Coordinator.Run returned")
		}
	}
}

// TestHandshakeDeadlineDisarmed: the tight handshake read deadline must come
// off both ends of a connection once the Welcome is through. The handshake
// timeout (100ms) is shorter than the heartbeat (400ms), and the second
// worker joins 600ms after the first, so the first rank's connection sits
// between heartbeats longer than the handshake timeout before the run
// starts. A read deadline left armed on either side fires there and kills
// the rank.
func TestHandshakeDeadlineDisarmed(t *testing.T) {
	const handshake = 100 * time.Millisecond
	g := gen.ER(200, 200, 800, 4)
	c, err := NewCoordinator(g, "127.0.0.1:0", ClusterOptions{
		Ranks:            2,
		Grafting:         true,
		Heartbeat:        400 * time.Millisecond,
		HandshakeTimeout: handshake,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, delay := range []time.Duration{0, 600 * time.Millisecond} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(delay)
			errs <- RunWorker(ctx, WorkerOptions{Addr: c.Addr(), Rank: -1, G: g, HandshakeTimeout: handshake})
		}()
	}
	s, err := c.Run(ctx, matching.New(g.NX(), g.NY()))
	if err != nil {
		cancel()
	}
	wg.Wait()
	close(errs)
	if err != nil {
		t.Errorf("cluster run: %v", err)
	}
	for e := range errs {
		if e != nil {
			t.Errorf("worker: %v", e)
		}
	}
	if s.RankDeaths != 0 {
		t.Errorf("%d rank deaths, want 0", s.RankDeaths)
	}
}
