package obs

import (
	"hash/fnv"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Config sizes a Recorder.
type Config struct {
	// TraceCapacity bounds the span ring buffer; 0 means 16384. Older
	// spans are dropped (and counted) once the ring wraps.
	TraceCapacity int
}

// reqTableCap bounds the live-inflight request table served at /requests.
// matchd's admission controller caps concurrency far below this; when the
// table is somehow full ReqBegin returns token 0 and the request simply is
// not tracked — tracking is best-effort, never back-pressure.
const reqTableCap = 1024

// ReqInfo is one in-flight request row on the /requests surface.
type ReqInfo struct {
	ID        string `json:"id"`
	Trace     string `json:"trace"`
	Endpoint  string `json:"endpoint"`
	Instance  string `json:"instance,omitempty"`
	Class     string `json:"class,omitempty"`
	State     string `json:"state"`
	StartedAt int64  `json:"started_at_unix_ns"`
}

// reqSlot is one slot of the inflight table; token 0 marks it free.
type reqSlot struct {
	token uint64
	info  ReqInfo
}

// RankStatus is one rank's row in the cluster snapshot: liveness, deaths,
// and the supersteps the coordinator gathered from the rank with the
// compute time each StepDone reported.
type RankStatus struct {
	Rank             int   `json:"rank"`
	Alive            bool  `json:"alive"`
	Deaths           int64 `json:"deaths"`
	Steps            int64 `json:"steps"`
	StepLatencySumNS int64 `json:"step_latency_sum_ns"`
	StepLatencyMaxNS int64 `json:"step_latency_max_ns"`
}

// ClusterSnapshot is the /cluster surface: the run trace id plus one
// RankStatus per rank, refreshed by the coordinator at phase boundaries and
// recovery epochs.
type ClusterSnapshot struct {
	Trace      string       `json:"trace,omitempty"`
	Epoch      int64        `json:"epoch"`
	Supersteps int64        `json:"supersteps"`
	Recoveries int64        `json:"recoveries"`
	Ranks      []RankStatus `json:"ranks,omitempty"`
	UpdatedAt  int64        `json:"updated_at_unix_ns,omitempty"`
}

// state is the mutable box behind a Recorder. It is held by pointer so that
// WithTrace can return a shallow Recorder copy (same registry, tracer, and
// state; different trace id) without copying a mutex.
type state struct {
	mu      sync.Mutex
	status  RunStatus
	cluster ClusterSnapshot

	reqMu  sync.Mutex
	reqSeq uint64
	reqs   [reqTableCap]reqSlot
}

// Recorder is the hub the engines record into: a metrics registry, a span
// tracer, and a run-status snapshot, plus pre-registered handles for the
// cross-engine metrics (run gauges and checkpoint counters).
//
// A nil *Recorder is the no-op default: every method (and every handle a nil
// recorder returns) degrades to a nil check, so instrumented engines run
// allocation-free and effectively untaxed when nobody is observing. The
// alloc tests in this package pin that property.
//
// A Recorder optionally carries a trace id: WithTrace derives a view that
// stamps every Span with that id, which is how one matchd request's engine
// phases stay correlatable on /trace.
type Recorder struct {
	reg    *Registry
	tracer *Tracer
	st     *state
	trace  uint64

	phaseG    *Gauge
	cardG     *Gauge
	completeG *Gauge
	ckptC     *Counter
	ckptBytes *Counter
	ckptFsync *Histogram
}

// New builds a live Recorder.
func New(cfg Config) *Recorder {
	r := &Recorder{
		reg:    newRegistry(),
		tracer: newTracer(cfg.TraceCapacity),
		st:     &state{},
	}
	r.phaseG = r.reg.Gauge("graftmatch_run_phase", "current search phase of the live run")
	r.cardG = r.reg.Gauge("graftmatch_run_cardinality", "matching cardinality after the last completed phase")
	r.completeG = r.reg.Gauge("graftmatch_run_complete", "1 once the run reached a maximum matching, else 0")
	r.ckptC = r.reg.Counter("graftmatch_checkpoint_snapshots_total", "checkpoint snapshots written")
	r.ckptBytes = r.reg.Counter("graftmatch_checkpoint_bytes_total", "checkpoint bytes written")
	r.ckptFsync = r.reg.Histogram("graftmatch_checkpoint_fsync_ns", "checkpoint fsync latency in nanoseconds")
	return r
}

// traceSeq disambiguates trace ids minted within the same clock tick.
var traceSeq atomic.Uint64

// NewTraceID mints a nonzero 64-bit trace id: the wall clock, the pid, and a
// process-local sequence mixed through splitmix64. Not cryptographic — it
// only needs to be unique enough to correlate spans and log lines.
func NewTraceID() uint64 {
	x := uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32 ^ traceSeq.Add(1)
	// splitmix64 finalizer
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// TraceHex renders a trace id in its canonical 16-hex form — the same text
// matchd returns in X-Request-Id and /trace embeds in span args.
func TraceHex(trace uint64) string {
	return string(appendTraceHex(make([]byte, 0, 16), trace))
}

// HashTrace folds an externally supplied request id (a client's
// X-Request-Id) into a nonzero trace id via FNV-64a, so foreign ids
// correlate spans without being trusted as raw integers.
func HashTrace(id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	v := h.Sum64()
	if v == 0 {
		v = 1
	}
	return v
}

// WithTrace returns a view of the recorder whose Spans are stamped with
// trace. The view shares the registry, tracer, status, and handles; only the
// stamp differs. Nil recorder and zero trace both return the receiver.
func (r *Recorder) WithTrace(trace uint64) *Recorder {
	if r == nil || trace == 0 || trace == r.trace {
		return r
	}
	child := *r
	child.trace = trace
	return &child
}

// Trace returns the trace id this recorder view stamps (0 = untagged).
func (r *Recorder) Trace() uint64 {
	if r == nil {
		return 0
	}
	return r.trace
}

// Counter returns (creating on first use) a named counter handle, or nil on
// a nil recorder — the nil handle is itself a valid no-op.
func (r *Recorder) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.reg.Counter(name, help)
}

// Gauge returns a named gauge handle; nil-safe as Counter.
func (r *Recorder) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.reg.Gauge(name, help)
}

// Histogram returns a named histogram handle; nil-safe as Counter.
func (r *Recorder) Histogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	return r.reg.Histogram(name, help)
}

// Registry exposes the underlying registry (nil on a nil recorder), for the
// HTTP surface and tests.
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Tracer exposes the underlying tracer (nil on a nil recorder).
func (r *Recorder) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// Span records one completed phase/step/superstep interval, stamped with the
// recorder's trace id. Nil-safe, allocation-free, intended for driver
// goroutines at phase granularity — never per edge or per vertex.
func (r *Recorder) Span(cat, name string, start time.Time, d time.Duration, arg int64) {
	if r == nil {
		return
	}
	r.tracer.RecordTagged(cat, name, start, d, arg, r.trace)
}

// SetCluster publishes a fresh cluster snapshot for the /cluster surface.
func (r *Recorder) SetCluster(cs ClusterSnapshot) {
	if r == nil {
		return
	}
	r.st.mu.Lock()
	r.st.cluster = cs
	r.st.mu.Unlock()
}

// Cluster returns the last published cluster snapshot (zero value on a nil
// recorder or a single-process run).
func (r *Recorder) Cluster() ClusterSnapshot {
	if r == nil {
		return ClusterSnapshot{}
	}
	r.st.mu.Lock()
	defer r.st.mu.Unlock()
	return r.st.cluster
}

// ReqBegin registers an in-flight request and returns its table token.
// Token 0 (nil recorder or full table) means "not tracked" and is accepted
// by ReqState/ReqEnd as a no-op, so callers never branch.
func (r *Recorder) ReqBegin(info ReqInfo) uint64 {
	if r == nil {
		return 0
	}
	st := r.st
	st.reqMu.Lock()
	defer st.reqMu.Unlock()
	for i := range st.reqs {
		if st.reqs[i].token != 0 {
			continue
		}
		st.reqSeq++
		if st.reqSeq == 0 {
			st.reqSeq = 1
		}
		st.reqs[i].token = st.reqSeq
		st.reqs[i].info = info
		return st.reqSeq
	}
	return 0
}

// ReqState updates the tracked request's state label ("admitted",
// "running", "degraded", ...). No-op for token 0 or a reclaimed slot.
func (r *Recorder) ReqState(token uint64, state string) {
	if r == nil || token == 0 {
		return
	}
	st := r.st
	st.reqMu.Lock()
	for i := range st.reqs {
		if st.reqs[i].token == token {
			st.reqs[i].info.State = state
			break
		}
	}
	st.reqMu.Unlock()
}

// ReqTag attaches the instance/size-class labels once the request body has
// been decoded. No-op for token 0.
func (r *Recorder) ReqTag(token uint64, instance, class string) {
	if r == nil || token == 0 {
		return
	}
	st := r.st
	st.reqMu.Lock()
	for i := range st.reqs {
		if st.reqs[i].token == token {
			if instance != "" {
				st.reqs[i].info.Instance = instance
			}
			if class != "" {
				st.reqs[i].info.Class = class
			}
			break
		}
	}
	st.reqMu.Unlock()
}

// ReqEnd releases the tracked request's slot. No-op for token 0.
func (r *Recorder) ReqEnd(token uint64) {
	if r == nil || token == 0 {
		return
	}
	st := r.st
	st.reqMu.Lock()
	for i := range st.reqs {
		if st.reqs[i].token == token {
			st.reqs[i] = reqSlot{}
			break
		}
	}
	st.reqMu.Unlock()
}

// Requests returns a copy of the live in-flight request table, oldest first.
func (r *Recorder) Requests() []ReqInfo {
	if r == nil {
		return nil
	}
	st := r.st
	st.reqMu.Lock()
	out := make([]ReqInfo, 0, 16)
	for i := range st.reqs {
		if st.reqs[i].token != 0 {
			out = append(out, st.reqs[i].info)
		}
	}
	st.reqMu.Unlock()
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].StartedAt < out[j-1].StartedAt; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// RunStatus is the live status snapshot served at /status.
type RunStatus struct {
	Algorithm      string `json:"algorithm,omitempty"`
	Running        bool   `json:"running"`
	Complete       bool   `json:"complete"`
	Phase          int64  `json:"phase"`
	Cardinality    int64  `json:"cardinality"`
	LastCheckpoint string `json:"last_checkpoint,omitempty"`
	GraphRows      int64  `json:"graph_rows,omitempty"`
	GraphCols      int64  `json:"graph_cols,omitempty"`
	GraphEdges     int64  `json:"graph_edges,omitempty"`
	StartedAt      int64  `json:"started_at_unix_ns,omitempty"`
	UpdatedAt      int64  `json:"updated_at_unix_ns,omitempty"`
}

// Status returns the current run-status snapshot (zero value on a nil
// recorder).
func (r *Recorder) Status() RunStatus {
	if r == nil {
		return RunStatus{}
	}
	r.st.mu.Lock()
	defer r.st.mu.Unlock()
	return r.st.status
}

// SetGraph records the instance dimensions for the status surface.
func (r *Recorder) SetGraph(rows, cols, edges int64) {
	if r == nil {
		return
	}
	r.st.mu.Lock()
	r.st.status.GraphRows, r.st.status.GraphCols, r.st.status.GraphEdges = rows, cols, edges
	r.st.mu.Unlock()
}

// RunStart marks the beginning of a run on the status surface and resets
// the run gauges.
func (r *Recorder) RunStart(algorithm string) {
	if r == nil {
		return
	}
	now := time.Now().UnixNano()
	r.st.mu.Lock()
	r.st.status.Algorithm = algorithm
	r.st.status.Running = true
	r.st.status.Complete = false
	r.st.status.Phase = 0
	r.st.status.StartedAt = now
	r.st.status.UpdatedAt = now
	r.st.mu.Unlock()
	r.phaseG.Set(0)
	r.completeG.Set(0)
}

// PhaseDone publishes the state after one completed phase: the engines call
// it from their driver goroutine at the same boundary that fires OnPhase,
// so /status and the run gauges lag the engine by at most one phase.
func (r *Recorder) PhaseDone(engine string, phase, cardinality int64) {
	if r == nil {
		return
	}
	r.st.mu.Lock()
	if engine != "" {
		r.st.status.Algorithm = engine
	}
	r.st.status.Phase = phase
	r.st.status.Cardinality = cardinality
	r.st.status.UpdatedAt = time.Now().UnixNano()
	r.st.mu.Unlock()
	r.phaseG.Set(phase)
	r.cardG.Set(cardinality)
}

// RunDone marks the end of a run.
func (r *Recorder) RunDone(complete bool, cardinality int64) {
	if r == nil {
		return
	}
	r.st.mu.Lock()
	r.st.status.Running = false
	r.st.status.Complete = complete
	r.st.status.Cardinality = cardinality
	r.st.status.UpdatedAt = time.Now().UnixNano()
	r.st.mu.Unlock()
	r.cardG.Set(cardinality)
	if complete {
		r.completeG.Set(1)
	}
}

// CheckpointSaved records one durable snapshot: its path on the status
// surface, and bytes + fsync latency in the registry.
func (r *Recorder) CheckpointSaved(path string, bytes int64, fsync time.Duration) {
	if r == nil {
		return
	}
	r.st.mu.Lock()
	r.st.status.LastCheckpoint = path
	r.st.status.UpdatedAt = time.Now().UnixNano()
	r.st.mu.Unlock()
	r.ckptC.Add(1)
	r.ckptBytes.Add(bytes)
	r.ckptFsync.Observe(int64(fsync))
}
