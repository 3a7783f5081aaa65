// dist.go wires the real multi-process distributed runtime into the CLI.
// One invocation with -dist-listen becomes the coordinator: it owns the
// global phase loop, optionally spawns its worker processes (-dist-spawn),
// and respawns replacements when a rank dies (-dist-respawn). Invocations
// with -dist-join become rank workers; every process loads the same graph
// file and the handshake cross-checks fingerprints.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"graftmatch"
	"graftmatch/internal/dist"
	distnet "graftmatch/internal/dist/net"
	"graftmatch/internal/matching"
)

// distFlags holds the multi-process launch flags.
type distFlags struct {
	listen  string
	ranks   int
	join    string
	rank    int
	spawn   bool
	respawn bool
	hb      time.Duration
	lease   time.Duration
	chaos   string
}

func registerDistFlags(fs *flag.FlagSet) *distFlags {
	df := &distFlags{}
	fs.StringVar(&df.listen, "dist-listen", "", "run as distributed coordinator, listening on this address (host:port, or a unix socket path)")
	fs.IntVar(&df.ranks, "dist-ranks", 0, "cluster width K for -dist-listen: worker processes the run waits for")
	fs.StringVar(&df.join, "dist-join", "", "run as distributed worker, joining the coordinator at this address")
	fs.IntVar(&df.rank, "dist-rank", -1, "rank to request when joining (-1 = coordinator assigns)")
	fs.BoolVar(&df.spawn, "dist-spawn", false, "coordinator spawns its K workers as subprocesses of this binary")
	fs.BoolVar(&df.respawn, "dist-respawn", true, "coordinator respawns a replacement subprocess when a rank dies")
	fs.DurationVar(&df.hb, "dist-hb", 0, "heartbeat interval for failure detection (0 = 500ms)")
	fs.DurationVar(&df.lease, "dist-lease", 0, "silence after which a peer is declared dead (0 = 8x heartbeat)")
	fs.StringVar(&df.chaos, "dist-chaos", "", "worker-side fault injection, e.g. latency=2ms,jitter=3ms,seed=7")
	return df
}

// distRunConfig carries the subset of ordinary CLI flags a distributed run
// honors, plus the dist flags themselves.
type distRunConfig struct {
	graphPath string
	flags     *distFlags

	verify     bool
	showStats  bool
	printMates bool
	outPath    string
	jsonOut    bool
	timeout    time.Duration
	ckptDir    string
	obsAddr    string
}

// runDist dispatches a maxmatch process into its distributed role.
func runDist(cfg distRunConfig) error {
	if cfg.flags.listen != "" && cfg.flags.join != "" {
		return fmt.Errorf("-dist-listen and -dist-join are mutually exclusive: one process is coordinator or worker, not both")
	}
	if cfg.jsonOut {
		return fmt.Errorf("-json is not supported in distributed mode")
	}
	if cfg.flags.join != "" {
		return runDistWorker(cfg)
	}
	return runDistCoordinator(cfg)
}

// parseChaosSpec parses the -dist-chaos value: comma-separated key=value
// pairs with keys latency, jitter, seed.
func parseChaosSpec(s string) (distnet.Chaos, error) {
	var ch distnet.Chaos
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return ch, fmt.Errorf("chaos spec %q: want key=value", kv)
		}
		var err error
		switch k {
		case "latency":
			ch.Latency, err = time.ParseDuration(v)
		case "jitter":
			ch.Jitter, err = time.ParseDuration(v)
		case "seed":
			ch.Seed, err = strconv.ParseInt(v, 10, 64)
		default:
			return ch, fmt.Errorf("chaos spec: unknown key %q (want latency, jitter, seed)", k)
		}
		if err != nil {
			return ch, fmt.Errorf("chaos spec %q: %v", kv, err)
		}
	}
	if ch.Latency < 0 || ch.Jitter < 0 {
		return ch, fmt.Errorf("chaos spec: latency and jitter must not be negative")
	}
	return ch, nil
}

// runDistWorker is one rank process: load the graph, optionally interpose a
// chaos proxy on the link, and serve supersteps until the coordinator says
// done.
func runDistWorker(cfg distRunConfig) error {
	g, err := graftmatch.ReadGraphFile(cfg.graphPath)
	if err != nil {
		return err
	}
	addr := cfg.flags.join
	if cfg.flags.chaos != "" {
		ch, err := parseChaosSpec(cfg.flags.chaos)
		if err != nil {
			return err
		}
		proxy, err := distnet.NewProxy(addr, ch, distnet.Limits{})
		if err != nil {
			return fmt.Errorf("chaos proxy: %w", err)
		}
		defer func() { _ = proxy.Close() }()
		fmt.Fprintf(os.Stderr, "dist: chaos proxy %s -> %s (%s)\n", proxy.Addr(), addr, cfg.flags.chaos)
		addr = proxy.Addr()
	}
	opts := dist.WorkerOptions{
		Addr: addr,
		Rank: cfg.flags.rank,
		G:    g,
		OnAttach: func(rank int) {
			fmt.Fprintf(os.Stderr, "dist: attached to %s as rank %d\n", cfg.flags.join, rank)
		},
	}
	if err := dist.RunWorker(context.Background(), opts); err != nil {
		return fmt.Errorf("worker: %w", err)
	}
	fmt.Fprintln(os.Stderr, "dist: worker done")
	return nil
}

// workerSpawner launches and tracks worker subprocesses of this binary. The
// same path serves the initial -dist-spawn fleet and -dist-respawn
// replacements, so a respawned rank is bit-identical to a fresh one.
type workerSpawner struct {
	self      string // this binary, re-exec'd for each worker
	addr      string // coordinator address, set once the listener is up
	graphPath string
	chaos     string

	mu    sync.Mutex
	procs map[int]spawnedProc
}

type spawnedProc struct {
	cmd  *exec.Cmd
	done chan struct{}
}

func newWorkerSpawner(graphPath, chaos string) *workerSpawner {
	return &workerSpawner{
		self:      os.Args[0],
		graphPath: graphPath,
		chaos:     chaos,
		procs:     make(map[int]spawnedProc),
	}
}

// spawn launches one worker subprocess requesting the given rank. Worker
// output goes to our stderr so the coordinator's stdout stays a clean result
// stream.
func (s *workerSpawner) spawn(rank int) error {
	args := []string{"-dist-join", s.addr, "-dist-rank", strconv.Itoa(rank)}
	if s.chaos != "" {
		args = append(args, "-dist-chaos", s.chaos)
	}
	args = append(args, s.graphPath)
	cmd := exec.Command(s.self, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("spawn rank %d: %w", rank, err)
	}
	fmt.Printf("dist: spawned rank %d pid=%d\n", rank, cmd.Process.Pid)
	done := make(chan struct{})
	go func() {
		_ = cmd.Wait()
		close(done)
	}()
	s.mu.Lock()
	s.procs[rank] = spawnedProc{cmd: cmd, done: done}
	s.mu.Unlock()
	return nil
}

// shutdown waits up to grace for every live worker to exit (a completed run
// has already broadcast done), then kills stragglers.
func (s *workerSpawner) shutdown(grace time.Duration) {
	s.mu.Lock()
	procs := make([]spawnedProc, 0, len(s.procs))
	for _, p := range s.procs {
		procs = append(procs, p)
	}
	s.mu.Unlock()
	deadline := time.After(grace)
	for _, p := range procs {
		select {
		case <-p.done:
		case <-deadline:
			_ = p.cmd.Process.Kill()
			<-p.done
		}
	}
}

// runDistCoordinator owns the distributed run: listen, (optionally) spawn
// the fleet, drive the phase loop with failure recovery, report like a
// single-process run.
func runDistCoordinator(cfg distRunConfig) error {
	df := cfg.flags
	if df.ranks < 1 {
		return fmt.Errorf("-dist-listen requires -dist-ranks >= 1")
	}

	var rec *graftmatch.Recorder
	if cfg.obsAddr != "" {
		rec = graftmatch.NewRecorder(graftmatch.RecorderConfig{})
		stop, err := serveObs(cfg.obsAddr, rec)
		if err != nil {
			return err
		}
		defer stop()
	}

	g, err := graftmatch.ReadGraphFile(cfg.graphPath)
	if err != nil {
		return err
	}
	fmt.Printf("graph: %d rows, %d cols, %d nonzeros\n", g.NX(), g.NY(), g.NumEdges())

	spawner := newWorkerSpawner(cfg.graphPath, df.chaos)
	opts := dist.ClusterOptions{
		Ranks:         df.ranks,
		Grafting:      true,
		Heartbeat:     df.hb,
		Lease:         df.lease,
		CheckpointDir: cfg.ckptDir,
		Recorder:      rec,
		OnPhase: func(phase, cardinality int64) {
			fmt.Printf("phase %d: |M|=%d\n", phase, cardinality)
		},
	}
	if df.respawn {
		opts.Respawn = func(rank int) error {
			fmt.Printf("dist: rank %d died; respawning\n", rank)
			return spawner.spawn(rank)
		}
	}

	coord, err := dist.NewCoordinator(g, df.listen, opts)
	if err != nil {
		return err
	}
	defer func() { _ = coord.Close() }()
	spawner.addr = coord.Addr()
	fmt.Printf("dist: coordinator listening on %s (%d ranks)\n", coord.Addr(), df.ranks)

	if df.spawn {
		for r := 0; r < df.ranks; r++ {
			if err := spawner.spawn(r); err != nil {
				spawner.shutdown(0)
				return err
			}
		}
	}

	ctx := context.Background()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	m := matching.New(g.NX(), g.NY())
	st, runErr := coord.Run(ctx, m)
	// Close before reaping so worker connections see the teardown even on
	// the error path; a clean run already broadcast done.
	_ = coord.Close()
	spawner.shutdown(5 * time.Second)
	if runErr != nil {
		return fmt.Errorf("distributed run: %w", runErr)
	}

	if st.Trace != "" {
		fmt.Printf("run trace: %s\n", st.Trace)
	}
	fmt.Printf("algorithm: %s\n", st.Algorithm)
	fmt.Printf("maximum matching cardinality: %d\n", m.Cardinality())
	fmt.Printf("runtime: %s\n", st.Runtime)
	if cfg.showStats {
		fmt.Printf("ranks: %d\n", st.Ranks)
		fmt.Printf("phases: %d\n", st.Phases)
		fmt.Printf("supersteps: %d, messages: %d\n", st.Supersteps, st.Messages)
		fmt.Printf("edges traversed: %d (%.2f MTEPS)\n", st.EdgesTraversed, st.MTEPS())
		fmt.Printf("augmenting paths: %d (avg length %.2f)\n", st.AugPaths, st.AvgAugPathLen())
		if st.Grafts+st.Rebuilds > 0 {
			fmt.Printf("grafted phases: %d, rebuilt phases: %d\n", st.Grafts, st.Rebuilds)
		}
		fmt.Printf("rank deaths: %d, recoveries: %d (%.0fms), attaches: %d\n",
			st.RankDeaths, st.Recoveries, float64(st.RecoveryTime.Nanoseconds())/1e6, st.Attaches)
	}
	if cfg.verify {
		if err := graftmatch.VerifyMaximum(g, m.MateX, m.MateY); err != nil {
			return fmt.Errorf("verification FAILED: %w", err)
		}
		fmt.Println("verified: matching is valid and maximum (König certificate)")
	}
	if cfg.printMates {
		for x, y := range m.MateX {
			fmt.Printf("%d %d\n", x+1, y+1) // 1-based like Matrix Market
		}
	}
	if cfg.outPath != "" {
		if err := writeMatching(cfg.outPath, m.MateX); err != nil {
			return err
		}
		fmt.Printf("matching written to %s\n", cfg.outPath)
	}
	return nil
}
