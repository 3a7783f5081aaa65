// Command maxmatch computes a maximum cardinality matching of a sparse
// matrix in Matrix Market format and reports run statistics.
//
// Usage:
//
//	maxmatch [-algo msbfsgraft|pf|pr|hk|ssbfs|ssdfs|msbfs|diropt] [-threads N]
//	         [-init ks|greedy|pgreedy|pks|none] [-timeout 30s] [-verify]
//	         [-checkpoint-dir DIR] [-checkpoint-interval 5s] [-resume]
//	         [-obs-addr :8080] [-stats] [-json] [-out matching.txt]
//	         file.{mtx,el,txt}[.gz]
//
// Distributed mode runs the matching across real processes over TCP or unix
// sockets. One process is the coordinator:
//
//	maxmatch -dist-listen :9000 -dist-ranks 4 -dist-spawn [-dist-respawn]
//	         [-dist-hb 500ms] [-dist-lease 4s] [-verify] [-stats] file.mtx
//
// and each rank is a worker (spawned automatically with -dist-spawn, or
// launched by hand or an external supervisor):
//
//	maxmatch -dist-join host:9000 [-dist-rank N] [-dist-chaos latency=2ms,jitter=3ms] file.mtx
//
// Every process loads the same graph file; the handshake cross-checks graph
// fingerprints. The coordinator detects dead ranks by a lost connection or
// an expired heartbeat lease, respawns replacements (-dist-respawn, default
// on), and resumes from the last phase-boundary checkpoint of the matching —
// with -checkpoint-dir the phase snapshots also persist to disk and survive
// coordinator restarts. A worker whose connection drops exits; without
// -dist-respawn, restart it within 30s to rejoin the run.
//
// With -checkpoint-dir the run persists crash-safe snapshots of its state at
// phase boundaries; -resume restarts from the newest valid snapshot for the
// same graph (verifying it first) and falls back to a fresh start when the
// directory is empty.
//
// With -obs-addr the run serves a live operational surface on that address
// while it computes: /metrics (Prometheus text), /metrics.json, /status,
// /trace (Chrome trace-event JSON for Perfetto), /trace/summary,
// /debug/pprof/* and /debug/vars. The listener is closed when the run ends.
//
// Exit status: 0 on success, 1 on error, 3 when -timeout expired and the
// reported matching is a valid partial result rather than a certified
// maximum, 4 when -resume found only corrupt or wrong-graph checkpoints.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"graftmatch"
	"graftmatch/internal/serve"
)

// errPartial signals a degraded (timeout-bounded) run: the matching printed
// is valid and resumable but not certified maximum. Mapped to exit status 3.
var errPartial = errors.New("timeout reached: matching is partial (valid and resumable), not certified maximum")

// errCheckpoint signals that -resume found checkpoints but none could be
// used: every snapshot was corrupt or belongs to a different graph. Mapped
// to exit status 4 so callers can distinguish "recompute from scratch is the
// only option" from an ordinary failure.
var errCheckpoint = errors.New("checkpoint unusable")

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "maxmatch:", err)
		switch {
		case errors.Is(err, errPartial):
			os.Exit(3)
		case errors.Is(err, errCheckpoint):
			os.Exit(4)
		}
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("maxmatch", flag.ContinueOnError)
	algoName := fs.String("algo", "msbfsgraft", "algorithm: msbfsgraft, msbfs, diropt, pf, pr, hk, ssbfs, ssdfs")
	initName := fs.String("init", "ks", "initializer: ks (Karp-Sipser), greedy, pgreedy, pks, none")
	threads := fs.Int("threads", 0, "worker threads (0 = GOMAXPROCS)")
	seed := fs.Int64("seed", 42, "initializer random seed")
	verify := fs.Bool("verify", false, "certify maximality (König vertex cover)")
	showStats := fs.Bool("stats", false, "print detailed run statistics")
	printMates := fs.Bool("mates", false, "print the mate of every row vertex")
	outPath := fs.String("out", "", "write the matching (1-based \"row col\" pairs) to this file")
	jsonOut := fs.Bool("json", false, "print the result summary as JSON")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the exact algorithm (0 = unlimited); on expiry the valid partial matching is reported and the exit status is 3")
	ckptDir := fs.String("checkpoint-dir", "", "persist crash-safe snapshots of run state into this directory")
	ckptInterval := fs.Duration("checkpoint-interval", 0, "minimum time between snapshots (0 = every phase boundary)")
	ckptKeep := fs.Int("checkpoint-keep", 0, "snapshots retained in -checkpoint-dir (0 = 3)")
	resume := fs.Bool("resume", false, "restart from the newest valid snapshot in -checkpoint-dir (fresh start if none)")
	obsAddr := fs.String("obs-addr", "", "serve live metrics/status/trace/pprof on this address (e.g. :8080) for the duration of the run")
	df := registerDistFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("expected exactly one .mtx file, got %d args", fs.NArg())
	}
	if df.listen != "" || df.join != "" {
		return runDist(distRunConfig{
			graphPath:  fs.Arg(0),
			flags:      df,
			verify:     *verify,
			showStats:  *showStats,
			printMates: *printMates,
			outPath:    *outPath,
			jsonOut:    *jsonOut,
			timeout:    *timeout,
			ckptDir:    *ckptDir,
			obsAddr:    *obsAddr,
		})
	}
	algo, err := graftmatch.ParseAlgorithm(*algoName)
	if err != nil {
		return err
	}
	initz, err := graftmatch.ParseInitializer(*initName)
	if err != nil {
		return err
	}

	// The observability surface comes up before graph loading so a scraper
	// can attach while a large instance is still parsing.
	var rec *graftmatch.Recorder
	if *obsAddr != "" {
		rec = graftmatch.NewRecorder(graftmatch.RecorderConfig{})
		stop, err := serveObs(*obsAddr, rec)
		if err != nil {
			return err
		}
		defer stop()
	}

	g, err := graftmatch.ReadGraphFile(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Printf("graph: %d rows, %d cols, %d nonzeros\n", g.NX(), g.NY(), g.NumEdges())

	opts := graftmatch.Options{
		Algorithm:   algo,
		Initializer: initz,
		Threads:     *threads,
		Seed:        *seed,
	}
	if *timeout > 0 {
		opts.Deadline = time.Now().Add(*timeout)
	}
	if *ckptDir != "" {
		opts.Checkpoint = &graftmatch.CheckpointOptions{
			Dir:      *ckptDir,
			Interval: *ckptInterval,
			Keep:     *ckptKeep,
		}
	}
	opts.Recorder = rec

	var resumeState *graftmatch.CheckpointState
	if *resume {
		if *ckptDir == "" {
			return fmt.Errorf("-resume requires -checkpoint-dir")
		}
		st, err := graftmatch.LoadCheckpoint(g, *ckptDir)
		switch {
		case errors.Is(err, graftmatch.ErrNoCheckpoint):
			fmt.Printf("resume: no checkpoint in %s, starting fresh\n", *ckptDir)
		case err != nil:
			return fmt.Errorf("%w: %v", errCheckpoint, err)
		default:
			// LoadCheckpoint validates structurally; re-verify against the
			// graph here so a resumed run never continues from mates that
			// are not edges.
			if verr := graftmatch.VerifyMatching(g, st.MateX, st.MateY); verr != nil {
				return fmt.Errorf("%w: restored matching failed verification: %v", errCheckpoint, verr)
			}
			fmt.Printf("resumed from %s: engine %s, phase %d, |M|=%d\n",
				st.Path, st.Engine, st.Phase, st.Cardinality)
			resumeState = st
		}
	}

	var res *graftmatch.Result
	if resumeState != nil {
		res, err = graftmatch.ResumeMatch(g, resumeState.MateX, resumeState.MateY, opts)
	} else {
		res, err = graftmatch.Match(g, opts)
	}
	if err != nil {
		return err
	}
	if res.CheckpointErr != nil {
		fmt.Fprintf(os.Stderr, "maxmatch: warning: checkpointing failed: %v\n", res.CheckpointErr)
	}
	if *outPath != "" {
		if err := writeMatching(*outPath, res.MateX); err != nil {
			return err
		}
	}
	if *jsonOut {
		if err := writeJSON(os.Stdout, g, res); err != nil {
			return err
		}
	} else {
		fmt.Printf("algorithm: %s\n", res.Stats.Algorithm)
		if res.Complete {
			fmt.Printf("maximum matching cardinality: %d\n", res.Cardinality)
		} else {
			fmt.Printf("PARTIAL matching cardinality: %d (timeout %s reached; resumable, not certified maximum)\n",
				res.Cardinality, *timeout)
		}
		fmt.Printf("runtime: %s\n", res.Stats.Runtime)
		if *showStats {
			fmt.Printf("initial |M| (after %s): %d\n", *initName, res.Stats.InitialCardinality)
			fmt.Printf("phases: %d\n", res.Stats.Phases)
			fmt.Printf("edges traversed: %d (%.2f MTEPS)\n", res.Stats.EdgesTraversed, res.Stats.MTEPS())
			fmt.Printf("augmenting paths: %d (avg length %.2f)\n", res.Stats.AugPaths, res.Stats.AvgAugPathLen())
			if res.Stats.Grafts+res.Stats.Rebuilds > 0 {
				fmt.Printf("grafted phases: %d, rebuilt phases: %d\n", res.Stats.Grafts, res.Stats.Rebuilds)
			}
			if res.CheckpointPath != "" {
				fmt.Printf("checkpoint: %s\n", res.CheckpointPath)
			}
		}
		if *verify {
			if res.Complete {
				if err := graftmatch.VerifyMaximum(g, res.MateX, res.MateY); err != nil {
					return fmt.Errorf("verification FAILED: %w", err)
				}
				fmt.Println("verified: matching is valid and maximum (König certificate)")
			} else {
				if err := graftmatch.VerifyMatching(g, res.MateX, res.MateY); err != nil {
					return fmt.Errorf("verification FAILED: %w", err)
				}
				fmt.Println("verified: partial matching is valid (maximality not certified)")
			}
		}
		if *printMates {
			for x, y := range res.MateX {
				fmt.Printf("%d %d\n", x+1, y+1) // 1-based like Matrix Market
			}
		}
		if *outPath != "" {
			fmt.Printf("matching written to %s\n", *outPath)
		}
	}
	if !res.Complete {
		return errPartial
	}
	return nil
}

// serveObs starts the operational HTTP surface on addr and returns a stop
// function that closes the listener and waits for the server goroutine. The
// bind happens synchronously so a bad address fails the run immediately and
// the printed URL is live before the computation starts.
func serveObs(addr string, rec *graftmatch.Recorder) (stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs-addr: %w", err)
	}
	fmt.Printf("observability: serving http://%s/ (metrics, status, trace, pprof)\n", ln.Addr())
	// Hardened constructor (header/read/idle timeouts): the surface may be
	// reachable by untrusted scrapers, and a naked http.Server holds a
	// slowloris connection open forever.
	srv := serve.NewHTTPServer(addr, graftmatch.ObsHandler(rec))
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Serve returns ErrServerClosed-like errors once the listener is
		// closed by stop(); the surface is best-effort either way.
		_ = srv.Serve(ln)
	}()
	return func() {
		_ = srv.Close()
		<-done
	}, nil
}

// writeMatching writes the matched (row, col) pairs 1-based, one per line.
func writeMatching(path string, mateX []int32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for x, y := range mateX {
		if y < 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "%d %d\n", x+1, y+1); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeJSON emits a machine-readable result summary.
func writeJSON(w io.Writer, g *graftmatch.Graph, res *graftmatch.Result) error {
	type summary struct {
		Algorithm      string  `json:"algorithm"`
		Rows           int32   `json:"rows"`
		Cols           int32   `json:"cols"`
		Nonzeros       int64   `json:"nonzeros"`
		Cardinality    int64   `json:"cardinality"`
		Complete       bool    `json:"complete"`
		InitialCard    int64   `json:"initial_cardinality"`
		Phases         int64   `json:"phases"`
		EdgesTraversed int64   `json:"edges_traversed"`
		AugPaths       int64   `json:"augmenting_paths"`
		AvgPathLen     float64 `json:"avg_path_length"`
		Grafts         int64   `json:"grafts"`
		Rebuilds       int64   `json:"rebuilds"`
		RuntimeMS      float64 `json:"runtime_ms"`
	}
	enc := json.NewEncoder(w)
	return enc.Encode(summary{
		Algorithm:      res.Stats.Algorithm,
		Rows:           g.NX(),
		Cols:           g.NY(),
		Nonzeros:       g.NumEdges(),
		Cardinality:    res.Cardinality,
		Complete:       res.Complete,
		InitialCard:    res.Stats.InitialCardinality,
		Phases:         res.Stats.Phases,
		EdgesTraversed: res.Stats.EdgesTraversed,
		AugPaths:       res.Stats.AugPaths,
		AvgPathLen:     res.Stats.AvgAugPathLen(),
		Grafts:         res.Stats.Grafts,
		Rebuilds:       res.Stats.Rebuilds,
		RuntimeMS:      float64(res.Stats.Runtime.Nanoseconds()) / 1e6,
	})
}
