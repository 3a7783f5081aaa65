package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"graftmatch/internal/dist"
	"graftmatch/internal/gen"
	"graftmatch/internal/matching"
	"graftmatch/internal/matchinit"
)

// clusterBench runs the whole distributed runtime per op: a coordinator on a
// unix socket, one in-process worker per CPU, the run, and the workers'
// exit. Ops rotate over the instances.
type clusterBench struct {
	insts []instance
	init  []*matching.Matching // greedy start matchings, cloned per op
	sock  string
	ranks int
	// first holds each instance's first superstep and message counts; every
	// later run on the same input must repeat them.
	first []*dist.ClusterStats
}

// clusterHeartbeat replaces the 500 ms default, whose 4 s lease would make
// every op mostly the workers' wait for it after the run; at 50 ms an op is
// about half a second, so a run holds enough ops for a p75.
const clusterHeartbeat = 50 * time.Millisecond

// cluster: four ~2k-per-side low-matching instances.
func setupCluster(cfg config) (bench, error) {
	var insts []instance
	var init []*matching.Matching
	for i, seed := range seeds(cfg.seed, 4) {
		in := newInstance(fmt.Sprintf("weblike-11-%d", i), gen.WebLike(11, 6, 0.30, seed))
		insts = append(insts, in)
		init = append(init, matchinit.Greedy(in.g))
	}
	// A unix socket path is short (108 bytes), so keep it relative; the
	// "./" prefix is what makes dist treat the address as a unix socket.
	sock := filepath.Join(cfg.outDir, fmt.Sprintf("cluster-%d.sock", os.Getpid()))
	if !filepath.IsAbs(sock) {
		sock = "./" + sock
	}
	b := &clusterBench{
		insts: insts,
		init:  init,
		sock:  sock,
		ranks: runtime.GOMAXPROCS(0),
		first: make([]*dist.ClusterStats, len(insts)),
	}
	// Warm-up: one run, which also records the first instance's counters.
	rep := newReport()
	if _, err := b.op(nil, 0, rep); err != nil {
		return nil, err
	}
	if rep.failed > 0 {
		return nil, errors.New("cluster: warm-up run failed its checks")
	}
	return b, nil
}

func (b *clusterBench) close() { _ = os.Remove(b.sock) } // the listener normally unlinks it

type clusterOp struct {
	total, run, exit, cpu time.Duration
	stats                 dist.ClusterStats
}

// op runs one cluster to completion and checks its matching. With a tracer
// it records one span per stage.
func (b *clusterBench) op(t *tracer, id int64, rep *report) (clusterOp, error) {
	_ = os.Remove(b.sock)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	i := int(id) % len(b.insts)
	in := b.insts[i]
	m := b.init[i].Clone()

	cpuStart, start := cpuTime(), time.Now()
	c, err := dist.NewCoordinator(in.g, b.sock, dist.ClusterOptions{Ranks: b.ranks, Grafting: true, Heartbeat: clusterHeartbeat})
	if err != nil {
		return clusterOp{}, err
	}
	var wg sync.WaitGroup
	errs := make([]error, b.ranks)
	for i := 0; i < b.ranks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = dist.RunWorker(ctx, dist.WorkerOptions{Addr: b.sock, Rank: -1, G: in.g})
		}(i)
	}
	runStart := time.Now()
	st, runErr := c.Run(ctx, m)
	runEnd := time.Now()
	if runErr != nil {
		cancel()
	}
	wg.Wait()
	exitEnd := time.Now()
	closeErr := c.Close()
	end, cpu := time.Now(), cpuTime()-cpuStart
	if runErr != nil {
		return clusterOp{}, fmt.Errorf("cluster run: %w", runErr)
	}
	if closeErr != nil {
		return clusterOp{}, fmt.Errorf("closing the coordinator: %w", closeErr)
	}

	if t != nil {
		root := t.reserve()
		t.add("dist", "NewCoordinator+RunWorker", root, id, start, runStart)
		t.add("dist", "Coordinator.Run", root, id, runStart, runEnd)
		t.add("dist", "worker-exit", root, id, runEnd, exitEnd)
		t.add("dist", "Coordinator.Close", root, id, exitEnd, end)
		checkStart := time.Now()
		b.check(i, m, st, errs, rep)
		checkEnd := time.Now()
		t.add("matching", "VerifyMaximum", root, id, checkStart, checkEnd)
		t.finish(root, "bench", "cluster", id, start, checkEnd)
	} else {
		b.check(i, m, st, errs, rep)
	}
	return clusterOp{total: end.Sub(start), run: runEnd.Sub(runStart), exit: exitEnd.Sub(runEnd), cpu: cpu, stats: st}, nil
}

func (b *clusterBench) check(i int, m *matching.Matching, st dist.ClusterStats, errs []error, rep *report) {
	in := b.insts[i]
	for rank, err := range errs {
		if err != nil {
			rep.fail("cluster worker %d: %v", rank, err)
			return
		}
	}
	first := b.first[i]
	switch err := in.verify(st.Complete, m); {
	case err != nil:
		rep.fail("cluster %s: %v", in.name, err)
	case first == nil:
		b.first[i] = &st
	case st.Supersteps != first.Supersteps || st.Messages != first.Messages:
		rep.fail("cluster %s: supersteps/messages %d/%d, first run %d/%d",
			in.name, st.Supersteps, st.Messages, first.Supersteps, first.Messages)
	}
}

func (b *clusterBench) run(cfg config) (*report, error) {
	rep := newReport()
	var alloc allocMeter
	var t *tracer
	var opMS, cpuMS, tracedMS, runMS, exitMS []float64
	var supersteps, retrans, attaches, reconnects int64
	ops, tracedOps := 0, 0

	start := time.Now()
	end := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	untracedEnd := end
	if cfg.trace {
		t = newTracer()
		untracedEnd = start.Add(end.Sub(start) / 2)
	}
	for id := int64(1); time.Now().Before(end); id++ {
		rep.attempted++
		if cfg.trace && !time.Now().Before(untracedEnd) {
			o, err := b.op(t, id, rep)
			if err != nil {
				return nil, err
			}
			tracedOps++
			tracedMS = append(tracedMS, ms(o.total))
			runMS = append(runMS, ms(o.run))
			exitMS = append(exitMS, ms(o.exit))
			supersteps += o.stats.Supersteps
			retrans += o.stats.Retransmits
			attaches += o.stats.Attaches
			reconnects += o.stats.Reconnects
			continue
		}
		alloc.start()
		o, err := b.op(nil, id, rep)
		alloc.stop()
		if err != nil {
			return nil, err
		}
		ops++
		opMS = append(opMS, ms(o.total))
		cpuMS = append(cpuMS, ms(o.cpu))
	}
	if ops == 0 {
		return nil, fmt.Errorf("cluster: no run finished within %gs", cfg.seconds)
	}
	rep.e2e["op_ms_p50"] = quantile(opMS, 50)
	rep.layer["wall.op_ms_p50"] = quantile(opMS, 50)
	rep.layer["wall.op_ms_tail"] = quantile(opMS, workloads["cluster"].tailPct)
	rep.layer["wall.ops_per_s"] = float64(len(opMS)) / (sum(opMS) / 1e3)
	rep.e2e["cpu_ms_per_op"] = mean(cpuMS)
	alloc.record(rep, ops)
	if !cfg.trace {
		return rep, nil
	}
	// Superstep, message and phase counts repeat exactly, so each instance's
	// first run stands for all of its runs; the session counters are summed
	// over the traced runs.
	for _, st := range b.first {
		if st != nil {
			rep.layer["dist.supersteps"] += float64(st.Supersteps)
			rep.layer["dist.messages"] += float64(st.Messages)
			rep.layer["dist.phases"] += float64(st.Phases)
		}
	}
	rep.layer["dist.run_ms"] = mean(runMS)
	rep.layer["dist.worker_exit_ms"] = mean(exitMS)
	rep.layer["dist.us_per_superstep"] = sum(runMS) * 1e3 / float64(max(supersteps, 1))
	rep.layer["dist.net.retransmits"] = float64(retrans)
	rep.layer["dist.net.attaches"] = float64(attaches)
	rep.layer["dist.net.reconnects"] = float64(reconnects)
	rep.layer["bench.trace_overhead_ms"] = quantile(tracedMS, 50) - rep.layer["wall.op_ms_p50"]
	return rep, finishTrace(t, cfg, "cluster", tracedOps, rep)
}
