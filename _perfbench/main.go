// Command perfbench is graftmatch's layered benchmark. It generates the
// inputs of one workload from a seed, computes their maximum cardinality
// with an independent oracle, measures the workload for a fixed time, checks
// every answer, and prints one JSON result line: the end-to-end metrics with
// -trace 0, or the per-layer metrics of a traced run with -trace 1.
//
// Workloads:
//
//	lowmatch  facade solves of low-matching-number WebLike/RMAT graphs
//	roadnet   facade solves of a large road-network lattice
//	matchd    open-loop HTTP load on an in-process serve.Server
//	cluster   full dist coordinator + worker runs over a unix socket
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupRuns is how many times a run builds its workload; setup_s is the
// median, so one slow set-up does not move it.
const setupRuns = 3

type metricDef struct {
	name, unit string
}

// endToEnd are the metrics printed with -trace 0, on every workload. An "op"
// is one solve (lowmatch, roadnet), one request (matchd) or one cluster run.
//
// op_ms_p50 is the op's median wall time, so idle waits (the cluster
// workers' exit, admission queueing) count. cpu_ms_per_op and setup_s are
// process CPU time: this benchmark's host is a 2-vCPU VM on a shared machine,
// where other tenants' load showed up as 0–27% CPU steal, which wall time
// includes and CPU time leaves out.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "count"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics printed with -trace 1, on every workload; a layer
// a workload does not reach reports 0.
var perLayer = []metricDef{
	{"wall.op_ms_p50", "ms"},
	{"wall.op_ms_tail", "ms"},
	{"wall.ops_per_s", "1/s"},
	{"wall.setup_s", "s"},
	{"matchinit.ms", "ms"},
	{"matchinit.card_frac", "ratio"},
	{"core.ms", "ms"},
	{"core.statistics_ms", "ms"},
	{"core.graft_ms", "ms"},
	{"core.augment_ms", "ms"},
	{"core.topdown_ms", "ms"},
	{"core.bottomup_ms", "ms"},
	{"core.unaccounted_ms", "ms"},
	{"core.phases", "count"},
	{"core.edges", "count"},
	{"core.grafts", "count"},
	{"core.rebuilds", "count"},
	{"core.topdown_levels", "count"},
	{"core.bottomup_levels", "count"},
	{"core.edges_per_augpath", "ratio"},
	{"core.mteps", "1/s"},
	{"core.phases_p2_min", "count"},
	{"core.phases_p2_median", "count"},
	{"core.phases_p2_max", "count"},
	{"par.serial_solve_ms_p50", "ms"},
	{"par.speedup_p2", "ratio"},
	{"par.pool_backlog_max", "count"},
	{"matching.verify_ms", "ms"},
	{"mmio.write_ms", "ms"},
	{"mmio.read_ms", "ms"},
	{"serve.decode_ms", "ms"},
	{"serve.hit_ms_p50", "ms"},
	{"serve.hit_mates_ms_p50", "ms"},
	{"serve.compute_ms_p50", "ms"},
	{"serve.verify_ms_p50", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.resp_kb_mean", "KB"},
	{"serve.shed", "count"},
	{"serve.degraded", "count"},
	{"serve.queued_max", "count"},
	{"supervise.fallbacks", "count"},
	{"dist.run_ms", "ms"},
	{"dist.worker_exit_ms", "ms"},
	{"dist.supersteps", "count"},
	{"dist.messages", "count"},
	{"dist.phases", "count"},
	{"dist.us_per_superstep", "us"},
	{"dist.net.retransmits", "count"},
	{"dist.net.attaches", "count"},
	{"dist.net.reconnects", "count"},
	{"self.bench_ms", "ms"},
	{"self.matchinit_ms", "ms"},
	{"self.core_ms", "ms"},
	{"self.matching_ms", "ms"},
	{"self.serve_ms", "ms"},
	{"self.dist_ms", "ms"},
	{"bench.error_rate", "ratio"},
	{"bench.tail_pct", "%"},
	{"bench.trace_overhead_ms", "ms"},
	{"bench.req_ms_p99", "ms"},
	{"bench.gen_lag_ms_p99", "ms"},
	{"bench.backlog_max", "count"},
	{"bench.steal_pct", "%"},
}

type config struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string
}

// report is what one workload run measured. Each workload fills e2e with
// every end-to-end metric except setup_s and peak_rss_mb, and layer with the
// per-layer metrics it reaches.
type report struct {
	attempted, failed int64
	e2e               map[string]float64
	layer             map[string]float64
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail counts one failed op and explains the first few on stderr.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// bench is one prepared workload: setup has built its inputs, oracle and
// server; run measures it; close releases what setup started.
type bench interface {
	run(cfg config) (*report, error)
	close()
}

type workload struct {
	setup func(cfg config) (bench, error)
	// tailPct is the percentile reported as wall.op_ms_tail: the highest one
	// that leaves at least ten samples beyond it at the default run length.
	tailPct float64
}

var workloads = map[string]workload{
	"lowmatch": {setup: setupLowmatch, tailPct: 90},
	"roadnet":  {setup: setupRoadnet, tailPct: 90},
	// matchd's p99 tracked the host's CPU steal rather than the server (8 to
	// 37 ms over ten runs with 1–12% steal); it is bench.req_ms_p99.
	"matchd":  {setup: setupMatchd, tailPct: 90},
	"cluster": {setup: setupCluster, tailPct: 75},
}

func main() {
	name := flag.String("workload", "", "lowmatch | roadnet | matchd | cluster")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measured time per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench-out", "directory for span files and run scratch")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *out}

	b, setupCPU, setupWall, err := setUp(w, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: set-up: %v\n", err)
		os.Exit(1)
	}
	steal := newStealMeter()
	rep, err := b.run(cfg)
	b.close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	rep.layer["bench.steal_pct"] = steal.pct()
	rep.e2e["setup_s"] = setupCPU
	rep.e2e["peak_rss_mb"] = peakRSSMB()
	rep.layer["wall.setup_s"] = setupWall
	rep.layer["bench.tail_pct"] = w.tailPct
	rep.layer["bench.error_rate"] = float64(rep.failed) / math.Max(1, float64(rep.attempted))

	fmt.Fprintf(os.Stderr, "perfbench: wall time: op p50 %.3f ms, op p%g %.3f ms, %.2f ops/s, set-up %.3f s; CPU steal %.1f%%\n",
		rep.layer["wall.op_ms_p50"], w.tailPct, rep.layer["wall.op_ms_tail"], rep.layer["wall.ops_per_s"],
		setupWall, rep.layer["bench.steal_pct"])
	defs, values := endToEnd, rep.e2e
	if cfg.trace {
		defs, values = perLayer, rep.layer
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed, map[string]metric{}}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setUp builds the workload setupRuns times, keeps the last one and returns
// the median set-up time in CPU and in wall seconds.
func setUp(w workload, cfg config) (b bench, cpuS, wallS float64, err error) {
	var cpu, wall []float64
	for i := 0; i < setupRuns; i++ {
		if b != nil {
			b.close()
		}
		runtime.GC()
		cpuStart, start := cpuTime(), time.Now()
		if b, err = w.setup(cfg); err != nil {
			return nil, 0, 0, err
		}
		wall = append(wall, time.Since(start).Seconds())
		cpu = append(cpu, (cpuTime() - cpuStart).Seconds())
	}
	runtime.GC()
	return b, quantile(cpu, 50), quantile(wall, 50), nil
}

// quantile returns the p-th percentile of xs by linear interpolation between
// closest ranks; 0 for an empty slice.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cpuTime is the process's user plus system CPU time. The kernel leaves out
// the time the hypervisor stole from a virtual CPU, so it grows far less than
// wall time when other tenants load a shared host.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocMeter accumulates heap allocation between start and stop calls.
type allocMeter struct {
	mallocs, bytes uint64
	before         runtime.MemStats
}

func (a *allocMeter) start() { runtime.ReadMemStats(&a.before) }

func (a *allocMeter) stop() {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	a.mallocs += after.Mallocs - a.before.Mallocs
	a.bytes += after.TotalAlloc - a.before.TotalAlloc
}

// record stores allocs_per_op and alloc_mb_per_op for ops measured ops.
func (a *allocMeter) record(rep *report, ops int) {
	n := math.Max(1, float64(ops))
	rep.e2e["allocs_per_op"] = float64(a.mallocs) / n
	rep.e2e["alloc_mb_per_op"] = float64(a.bytes) / n / (1 << 20)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM), falling
// back to the Go runtime's total reservation where /proc is unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.Sys) / (1 << 20)
}

// stealMeter measures the share of CPU time the hypervisor took from this
// machine's virtual CPUs (the steal column of /proc/stat): on a shared host
// it explains runs that are slow across the board. It reads 0 where /proc
// is unavailable.
type stealMeter struct{ steal, total float64 }

func newStealMeter() stealMeter {
	steal, total := readCPUStat()
	return stealMeter{steal, total}
}

func (m stealMeter) pct() float64 {
	steal, total := readCPUStat()
	if total <= m.total {
		return 0
	}
	return 100 * (steal - m.steal) / (total - m.total)
}

// readCPUStat returns the steal and total jiffies of the "cpu" line.
func readCPUStat() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
