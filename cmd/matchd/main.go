// Command matchd is the matching-as-a-service daemon: it loads a registry of
// named graph instances and serves maximum-matching, verification,
// Dulmage–Mendelsohn decomposition, and BTF linear solves over HTTP to many
// concurrent clients.
//
// The daemon is built for sustained operation under hostile load: admission
// control with a bounded queue and per-class concurrency limits (overload
// answers 429 + Retry-After, never a collapsing queue), per-request
// deadlines with degraded-but-valid answers (a run that cannot finish in
// time returns its partial matching or the instance's last-good matching
// with HTTP 200 and "degraded":true), one shared worker pool bounding total
// compute parallelism, result caching with single-flight collapse of
// duplicate requests, and graceful drain on SIGTERM/SIGINT: stop admitting,
// finish every admitted request, then exit.
//
// Usage:
//
//	matchd -registry graphs/ [-addr 127.0.0.1:8080] [flags]
//
// The observability surface (/metrics, /status, /trace, /requests,
// /cluster, /debug/pprof) is mounted on the same listener. Every response
// carries an X-Request-Id header (inbound one honored, minted otherwise);
// one structured log line per request ties the id to its trace on /trace.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"graftmatch"
	"graftmatch/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "matchd:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("matchd", flag.ContinueOnError)
	var (
		registry    = fs.String("registry", "", "directory of graph instance files (.mtx/.el/.txt, optionally .gz); required")
		addr        = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		workers     = fs.Int("workers", 0, "shared worker pool size; 0 means GOMAXPROCS")
		threads     = fs.Int("threads", 0, "default per-request thread count; 0 means the pool size")
		deadline    = fs.Duration("deadline", serve.DefaultDeadline, "default per-request deadline when the body names none")
		maxDeadline = fs.Duration("max-deadline", serve.DefaultMaxDeadline, "ceiling on the deadline a request may ask for")
		interactive = fs.Int("interactive-slots", 0, "concurrent compute slots for the interactive class; 0 means the default")
		batch       = fs.Int("batch-slots", 0, "concurrent compute slots for the batch class; 0 means the default")
		maxQueue    = fs.Int("max-queue", 0, "bounded run-queue depth per class before load shedding; 0 means the default")
		ckptDir     = fs.String("checkpoint", "", "checkpoint directory: persists run snapshots and restores last-good matchings at startup")
		drainTO     = fs.Duration("drain-timeout", 0, "bound on graceful drain; 0 means max-deadline + 10s")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *registry == "" {
		return fmt.Errorf("-registry is required")
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}

	reg, err := serve.LoadRegistry(*registry)
	if err != nil {
		return err
	}
	pool := graftmatch.NewWorkerPool(*workers)
	defer pool.Close()
	s, err := serve.NewServer(serve.Config{
		Registry:      reg,
		Pool:          pool,
		Threads:       *threads,
		Deadline:      *deadline,
		MaxDeadline:   *maxDeadline,
		Admission:     serve.AdmissionConfig{InteractiveSlots: *interactive, BatchSlots: *batch, MaxQueue: *maxQueue},
		CheckpointDir: *ckptDir,
		Log:           stdout,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := serve.NewHTTPServer(*addr, s.Handler())
	fmt.Fprintf(stdout, "matchd: listening on http://%s (%d instances, %d workers)\n",
		ln.Addr(), len(reg.Names()), pool.Workers())
	for _, name := range reg.Names() {
		ins, _ := reg.Get(name)
		fmt.Fprintf(stdout, "matchd: instance %s: %dx%d, %d edges\n",
			name, ins.Graph.NX(), ins.Graph.NY(), ins.Graph.NumEdges())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-serveErr:
		return fmt.Errorf("listener failed: %w", err)
	case got := <-sig:
		fmt.Fprintf(stdout, "matchd: %v received; draining\n", got)
	}

	// Graceful drain: stop admitting (readyz flips to 503 immediately, new
	// compute requests answer 503), wait for every admitted request to
	// finish, then close the listener. No admitted request is ever dropped
	// — each one's own deadline bounds how long this can take.
	budget := *drainTO
	if budget <= 0 {
		budget = *maxDeadline + 10*time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		// Shut the listener down anyway; a stuck drain must not wedge
		// process exit past its budget.
		_ = srv.Close()
		return fmt.Errorf("drain: %w", err)
	}
	if err := srv.Shutdown(ctx); err != nil && err != http.ErrServerClosed {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Fprintln(stdout, "matchd: drain complete; exiting")
	return nil
}
