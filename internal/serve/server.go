package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graftmatch"
	"graftmatch/internal/btfsolve"
	"graftmatch/internal/dmperm"
	"graftmatch/internal/matching"
	"graftmatch/internal/obs"
	"graftmatch/internal/par"
)

// Default server parameters; see Config.
const (
	DefaultDeadline    = 10 * time.Second
	DefaultMaxDeadline = 2 * time.Minute
)

// Config assembles a Server. Registry is required; everything else has a
// working zero value.
type Config struct {
	// Registry holds the instances the daemon serves. Required.
	Registry *Registry

	// Pool is the shared worker pool every request computes on. Nil
	// builds a pool sized to GOMAXPROCS. The server owns a pool it
	// builds (Drain closes it) and leaves a caller-supplied one open.
	Pool *par.Pool

	// Threads is the default per-request slice count; 0 means the pool
	// width.
	Threads int

	// Caps bounds request decoding; zero value = package defaults.
	Caps Caps

	// Admission sizes the admission controller; zero value = defaults.
	Admission AdmissionConfig

	// Deadline is the per-request default when the body names none, and
	// MaxDeadline the ceiling a request may ask for (larger asks are
	// clamped). Zero means DefaultDeadline / DefaultMaxDeadline.
	Deadline    time.Duration
	MaxDeadline time.Duration

	// CheckpointDir, when set, persists crash-safe snapshots of match
	// runs, one subdirectory per instance, and — at startup — restores
	// each instance's last-good floor from the snapshots a previous
	// process left behind.
	CheckpointDir string

	// Recorder receives metrics and traces from the server and every
	// engine under it, and backs the mounted observability endpoints.
	// Nil builds a live one.
	Recorder *obs.Recorder

	// Log, when non-nil, receives one structured JSON line per request:
	// id, trace, method, path, status, duration, and an event marker on
	// shed/panic outcomes. matchd passes stdout; nil disables request
	// logging.
	Log io.Writer
}

// serveMetrics are the daemon's own counters, next to the engines' metrics
// in the same registry.
type serveMetrics struct {
	requests *obs.Counter // admitted requests, by completion
	shed     *obs.Counter // 429s
	degraded *obs.Counter // degraded (partial / last-good) answers
	cacheHit *obs.Counter // cache + single-flight join answers
	panics   *obs.Counter // handler panics contained
	inflight *obs.Gauge
	draining *obs.Gauge
	latency  *obs.Histogram // admitted request latency, microseconds
}

// Server is the matching-as-a-service daemon core: admission control in
// front, one shared worker pool behind, a single-flight result cache and a
// per-instance last-good floor in between, and a drain-aware lifecycle
// around all of it. Build with NewServer, expose Handler over a hardened
// HTTP server (NewHTTPServer), and call Drain on shutdown.
type Server struct {
	cfg      Config
	reg      *Registry
	pool     *par.Pool
	ownsPool bool
	adm      *Admission
	cache    *resultCache
	rec      *obs.Recorder
	met      serveMetrics
	mux      *http.ServeMux

	// compute runs one match. It is graftmatch.MatchContext; tests swap it
	// to hand the server answers of their making.
	compute func(context.Context, *graftmatch.Graph, graftmatch.Options) (*graftmatch.Result, error)

	mu        sync.Mutex
	draining  bool
	inflight  sync.WaitGroup
	nInflight atomic.Int64

	logMu sync.Mutex // serializes request-log lines
}

// reqCtx is the per-request telemetry context the request-id middleware
// threads through the handler chain: the correlation id (echoed in
// X-Request-Id), its numeric trace form (stamped on every span the request
// produces), the /requests table token, and the outcome marker the guard and
// failure paths fill in for the request log.
type reqCtx struct {
	id    string
	trace uint64
	token uint64
	event string // "" | "shed" | "panic" | "draining"
}

type reqCtxKey struct{}

// reqFromCtx returns the request's telemetry context, or nil outside the
// middleware (direct handler tests).
func reqFromCtx(ctx context.Context) *reqCtx {
	rc, _ := ctx.Value(reqCtxKey{}).(*reqCtx)
	return rc
}

// traceOf is the span stamp for a request context (0 when untracked).
func traceOf(rc *reqCtx) uint64 {
	if rc == nil {
		return 0
	}
	return rc.trace
}

// NewServer assembles the daemon core from cfg.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("serve: Config.Registry is required")
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = DefaultDeadline
	}
	if cfg.MaxDeadline <= 0 {
		cfg.MaxDeadline = DefaultMaxDeadline
	}
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Registry,
		pool:    cfg.Pool,
		adm:     NewAdmission(cfg.Admission),
		cache:   newResultCache(),
		rec:     cfg.Recorder,
		compute: graftmatch.MatchContext,
	}
	if s.pool == nil {
		s.pool = par.NewPool(0)
		s.ownsPool = true
	}
	if s.rec == nil {
		s.rec = obs.New(obs.Config{})
	}
	reg := s.rec.Registry()
	s.met = serveMetrics{
		requests: reg.Counter("graftmatch_serve_requests_total", "admitted requests completed"),
		shed:     reg.Counter("graftmatch_serve_shed_total", "requests shed by admission control (429)"),
		degraded: reg.Counter("graftmatch_serve_degraded_total", "degraded answers served (partial or last-good)"),
		cacheHit: reg.Counter("graftmatch_serve_cache_hits_total", "answers served from cache or a joined in-flight run"),
		panics:   reg.Counter("graftmatch_serve_panics_total", "handler panics contained"),
		inflight: reg.Gauge("graftmatch_serve_inflight", "requests currently admitted"),
		draining: reg.Gauge("graftmatch_serve_draining", "1 while the server drains"),
		latency:  reg.Histogram("graftmatch_serve_latency_us", "admitted request latency (µs)"),
	}
	if cfg.CheckpointDir != "" {
		s.restoreLastGood()
	}
	s.mux = http.NewServeMux()
	s.routes()
	return s, nil
}

// restoreLastGood seeds each instance's degradation floor from the newest
// intact checkpoint a previous process wrote. Best-effort by design: a
// missing or damaged snapshot just means no floor yet.
func (s *Server) restoreLastGood() {
	for _, name := range s.reg.Names() {
		ins, _ := s.reg.Get(name)
		st, err := graftmatch.LoadCheckpoint(ins.Graph, s.ckptDir(name))
		if err != nil {
			continue
		}
		//lint:ignore hotpath-alloc startup-only restore: one floor per instance, once per process
		s.cache.seedLastGood(name, &LastGood{
			MateX:       st.MateX,
			MateY:       st.MateY,
			Cardinality: st.Cardinality,
			Engine:      st.Engine,
			When:        time.Now(),
		})
	}
}

// ckptDir is the named instance's own snapshot directory. Snapshot
// retention keeps the newest files of one directory, so instances sharing
// a directory would prune each other's floors away.
func (s *Server) ckptDir(instance string) string {
	return filepath.Join(s.cfg.CheckpointDir, instance)
}

// Handler returns the daemon's HTTP surface:
//
//	POST /match      compute (or fetch) a maximum matching
//	POST /verify     check a client-supplied matching
//	POST /decompose  Dulmage–Mendelsohn decomposition
//	POST /btfsolve   solve a linear system over the instance pattern
//	GET  /instances  registry listing + admission snapshot
//	GET  /healthz    liveness (200 while the process runs)
//	GET  /readyz     readiness (503 once draining)
//	GET  /metrics …  the internal/obs surface (/metrics, /status, /trace,
//	                 /cluster, /requests, /debug/pprof, …) of the Recorder
//
// Every response — including 429/500 error paths — carries an X-Request-Id
// header: the inbound header when the client supplied one, a minted 16-hex
// trace id otherwise. Minted ids appear verbatim in /trace span args.
func (s *Server) Handler() http.Handler { return s.withRequestID(s.mux) }

// statusWriter captures the response status for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// sanitizeRequestID accepts a client-supplied id only if it is short and
// printable ASCII — anything else is replaced by a minted id rather than
// echoed into headers and logs.
func sanitizeRequestID(id string) string {
	if id == "" || len(id) > 128 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' {
			return ""
		}
	}
	return id
}

// tracked reports whether a path belongs on the /requests inflight table:
// the compute endpoints, not scrapes of the observability plane.
func tracked(path string) bool {
	switch path {
	case "/match", "/verify", "/decompose", "/btfsolve":
		return true
	}
	return false
}

// withRequestID is the outermost middleware: it resolves the request's
// correlation id (honoring a sane inbound X-Request-Id, minting otherwise),
// sets the response header before any handler can commit a status, registers
// compute requests on the /requests table, and emits the request log line.
func (s *Server) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rc := &reqCtx{}
		if id := sanitizeRequestID(r.Header.Get("X-Request-Id")); id != "" {
			rc.id = id
			rc.trace = obs.HashTrace(id)
		} else {
			rc.trace = obs.NewTraceID()
			rc.id = obs.TraceHex(rc.trace)
		}
		// Set up front so every outcome — success, shed, panic — carries it.
		w.Header().Set("X-Request-Id", rc.id)
		start := time.Now()
		if tracked(r.URL.Path) {
			rc.token = s.rec.ReqBegin(obs.ReqInfo{
				ID:        rc.id,
				Trace:     obs.TraceHex(rc.trace),
				Endpoint:  r.URL.Path,
				State:     "received",
				StartedAt: start.UnixNano(),
			})
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), reqCtxKey{}, rc)))
		s.rec.ReqEnd(rc.token)
		s.logRequest(rc, r, sw.status, time.Since(start))
	})
}

// logRequest emits the one structured line per request, if logging is on.
func (s *Server) logRequest(rc *reqCtx, r *http.Request, status int, d time.Duration) {
	if s.cfg.Log == nil {
		return
	}
	line := struct {
		TS     string  `json:"ts"`
		ID     string  `json:"id"`
		Trace  string  `json:"trace"`
		Method string  `json:"method"`
		Path   string  `json:"path"`
		Status int     `json:"status"`
		MS     float64 `json:"ms"`
		Event  string  `json:"event,omitempty"`
	}{
		TS:     time.Now().UTC().Format(time.RFC3339Nano),
		ID:     rc.id,
		Trace:  obs.TraceHex(rc.trace),
		Method: r.Method,
		Path:   r.URL.Path,
		Status: status,
		MS:     float64(d.Microseconds()) / 1e3,
		Event:  rc.event,
	}
	buf, err := json.Marshal(&line)
	if err != nil {
		return
	}
	buf = append(buf, '\n')
	s.logMu.Lock()
	_, _ = s.cfg.Log.Write(buf)
	s.logMu.Unlock()
}

func (s *Server) routes() {
	s.mux.HandleFunc("/match", s.guard(s.handleMatch))
	s.mux.HandleFunc("/verify", s.guard(s.handleVerify))
	s.mux.HandleFunc("/decompose", s.guard(s.handleDecompose))
	s.mux.HandleFunc("/btfsolve", s.guard(s.handleSolve))
	s.mux.HandleFunc("/instances", s.handleInstances)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "ok\n")
	})
	s.mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.isDraining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "ready\n")
	})
	// The observability surface rides the same mux, path by path, so one
	// listener serves both planes.
	obsH := obs.Handler(s.rec)
	for _, p := range []string{
		"/metrics", "/metrics.json", "/status", "/cluster", "/requests",
		"/trace", "/trace/summary", "/debug/",
	} {
		s.mux.Handle(p, obsH)
	}
}

// guard wraps a compute handler with the lifecycle defenses shared by every
// endpoint: drain gating (no new work once draining, tracked so Drain can
// wait for admitted work), method/body bounds, decode validation, and panic
// containment — a panicking handler answers 500 and the daemon lives on.
func (s *Server) guard(h func(http.ResponseWriter, *http.Request, *Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rc := reqFromCtx(r.Context())
		// Add-before-check under the lock pairs with Drain's
		// set-then-wait: a request either sees draining and bounces, or
		// is inside the WaitGroup before Drain starts waiting.
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			if rc != nil {
				rc.event = "draining"
			}
			writeError(w, http.StatusServiceUnavailable, "draining", 0)
			return
		}
		s.inflight.Add(1)
		s.mu.Unlock()
		defer s.inflight.Done()
		s.met.inflight.Set(s.nInflight.Add(1))
		defer func() { s.met.inflight.Set(s.nInflight.Add(-1)) }()

		start := time.Now()
		defer func() {
			if p := recover(); p != nil {
				if rc != nil {
					rc.event = "panic"
				}
				s.met.panics.Add(1)
				s.rec.Tracer().RecordTagged("serve", "panic", start, time.Since(start), 0, traceOf(rc))
				writeError(w, http.StatusInternalServerError,
					fmt.Sprintf("internal panic: %v", p), 0)
			}
		}()

		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "POST required", 0)
			return
		}
		body, err := readBody(r.Body, s.cfg.Caps.maxBody()+1)
		if err != nil {
			writeError(w, http.StatusBadRequest, "reading body: "+err.Error(), 0)
			return
		}
		// Neither decode path keeps a reference into the body.
		req, err := DecodeRequest(body.Bytes(), s.cfg.Caps)
		putBuf(body)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error(), 0)
			return
		}
		if rc != nil {
			s.rec.ReqTag(rc.token, req.Instance, req.Class)
			s.rec.ReqState(rc.token, "decoded")
		}
		h(w, r, req)
	}
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain performs graceful shutdown of the compute core: stop admitting
// (readyz flips to 503, new compute requests answer 503), wait for every
// admitted request to finish, then release the worker pool if the server
// owns it. Returns ctx.Err if the context expires first; in-flight requests
// are never cancelled — their own deadlines bound how long the wait can
// take (MaxDeadline is the worst case).
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.met.draining.Set(1)

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		if s.ownsPool {
			s.pool.Close()
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ---- compute path ----------------------------------------------------------

// run executes one match computation under admission, the deadline and the
// shared pool, certifies a complete answer, and folds the outcome into the
// last-good floor. A complete answer that fails its check is an engine
// error: nothing keeps it.
func (s *Server) run(ctx context.Context, ins *Instance, req *Request, deadline time.Time) (*graftmatch.Result, error) {
	opts := req.Options()
	opts.Pool = s.pool
	// The traced view stamps the request's trace id on every engine phase
	// span, tying the computation on /trace back to this X-Request-Id.
	opts.Recorder = s.rec.WithTrace(traceOf(reqFromCtx(ctx)))
	opts.Deadline = deadline
	if opts.Threads == 0 {
		opts.Threads = s.cfg.Threads
	}
	if opts.Threads == 0 {
		opts.Threads = s.pool.Workers()
	}
	if s.cfg.CheckpointDir != "" {
		opts.Checkpoint = &graftmatch.CheckpointOptions{Dir: s.ckptDir(ins.Name)}
	}
	res, err := s.compute(ctx, ins.Graph, opts)
	if err != nil {
		return nil, err
	}
	if res.Complete {
		if err := s.certify(ins, res); err != nil {
			return nil, fmt.Errorf("serve: %v answer for %s failed its check: %w", opts.Algorithm, ins.Name, err)
		}
	}
	s.cache.noteResult(ins.Name, opts.Algorithm.String(), res)
	return res, nil
}

// certify proves a complete answer maximum before the cache, the floor or a
// client sees it: the pair must be a valid matching of res.Cardinality edges,
// and maximum (proveMaximum).
func (s *Server) certify(ins *Instance, res *graftmatch.Result) error {
	m := &matching.Matching{MateX: res.MateX, MateY: res.MateY}
	card, err := m.VerifyCardinality(ins.Graph)
	switch {
	case err != nil:
		return err
	case card != res.Cardinality:
		return fmt.Errorf("cardinality %d, but the mates hold %d", res.Cardinality, card)
	}
	return s.proveMaximum(ins, m, card)
}

// proveMaximum proves the valid matching m of ins, of card edges, maximum.
// Once a proof has given the graph's ν, that is card = ν, and card < ν means
// an augmenting path (Berge), so no search is needed. Without ν, or with a
// card above it, which cannot be, VerifyMaximum searches, and a matching it
// passes records ν.
func (s *Server) proveMaximum(ins *Instance, m *matching.Matching, card int64) error {
	if nu, ok := s.cache.maximum(ins.Fingerprint); ok && card <= nu {
		if card < nu {
			return matching.ErrNotMaximum
		}
		return nil
	}
	if err := matching.VerifyMaximum(ins.Graph, m); err != nil {
		return err
	}
	s.cache.noteMaximum(ins.Fingerprint, card)
	return nil
}

// matchOutcome is the resolved answer of the match pipeline before JSON
// shaping.
type matchOutcome struct {
	res      *graftmatch.Result
	hit      *cachedResult // the cache entry res came from, for a cache or inflight answer
	lastGood *LastGood
	source   string // computed | cache | inflight | last-good | partial
	degraded bool
}

// getMatch is the full match pipeline: cache lookup, single-flight join,
// admission-controlled compute, and degradation. A nil error always carries
// a usable outcome; a non-nil error is terminal (shed, bad request, or no
// answer of any kind available in time).
func (s *Server) getMatch(ctx context.Context, ins *Instance, req *Request, deadline time.Time) (*matchOutcome, error) {
	rc := reqFromCtx(ctx)
	rec := s.rec.WithTrace(traceOf(rc))
	opts := req.Options()
	key := cacheKey{
		fp:   ins.Fingerprint,
		alg:  opts.Algorithm,
		init: opts.Initializer,
		seed: req.Seed,
	}

	var fl *flight
	leader := true
	if !req.NoCache {
		cacheStart := time.Now()
		var hit *cachedResult
		hit, fl, leader = s.cache.begin(key)
		if hit != nil {
			s.met.cacheHit.Add(1)
			rec.Span("request", "cache-hit", cacheStart, time.Since(cacheStart), 0)
			return &matchOutcome{res: hit.res, hit: hit, source: "cache"}, nil
		}
		if !leader {
			// Join the in-flight computation, bounded by our own
			// deadline — a follower never waits past it just because
			// the leader's budget is larger.
			if rc != nil {
				s.rec.ReqState(rc.token, "joined")
			}
			select {
			case <-fl.done:
				if fl.res != nil {
					s.met.cacheHit.Add(1)
					rec.Span("request", "inflight-join", cacheStart, time.Since(cacheStart), 0)
					return &matchOutcome{res: fl.res.res, hit: fl.res, source: "inflight"}, nil
				}
				// Leader finished without a complete result; fall
				// through and compute with our remaining budget.
			case <-ctx.Done():
				return s.degrade(ctx, ins, nil)
			}
		}
	}

	if rc != nil {
		s.rec.ReqState(rc.token, "queued")
	}
	admStart := time.Now()
	release, err := s.adm.Admit(ctx, req.Class, deadline)
	rec.Span("request", "admission-wait", admStart, time.Since(admStart), 0)
	if err != nil {
		if leader && fl != nil {
			s.cache.finish(key, fl, nil)
		}
		if ctx.Err() != nil && err == ctx.Err() {
			// Deadline expired while queued: degrade rather than error.
			out, derr := s.degrade(ctx, ins, nil)
			if derr == nil {
				return out, nil
			}
		}
		return nil, err
	}
	if rc != nil {
		s.rec.ReqState(rc.token, "running")
	}
	res, err := s.run(ctx, ins, req, deadline)
	release()
	if leader && fl != nil {
		s.cache.finish(key, fl, res)
	}
	if err != nil {
		// A real engine failure (e.g. a contained worker panic): the
		// last-good floor is the difference between an error page and a
		// degraded answer.
		return s.degrade(ctx, ins, err)
	}
	if res.Complete {
		return &matchOutcome{res: res, source: "computed"}, nil
	}
	// The deadline left a valid partial matching. Serve the best state
	// known for the instance: an earlier complete/larger matching beats
	// this run's partial.
	if lg, ok := s.cache.getLastGood(ins.Name); ok && lg.Cardinality > res.Cardinality {
		s.met.degraded.Add(1)
		return &matchOutcome{lastGood: lg, source: "last-good", degraded: true}, nil
	}
	s.met.degraded.Add(1)
	return &matchOutcome{res: res, source: "partial", degraded: true}, nil
}

// degrade answers from the last-good floor, or reports cause (or a generic
// timeout) when no floor exists.
func (s *Server) degrade(ctx context.Context, ins *Instance, cause error) (*matchOutcome, error) {
	if lg, ok := s.cache.getLastGood(ins.Name); ok {
		if rc := reqFromCtx(ctx); rc != nil {
			s.rec.ReqState(rc.token, "degraded")
		}
		s.met.degraded.Add(1)
		return &matchOutcome{lastGood: lg, source: "last-good", degraded: true}, nil
	}
	if cause == nil {
		cause = fmt.Errorf("deadline expired before any result was available")
	}
	return nil, cause
}

// ---- handlers --------------------------------------------------------------

func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request, req *Request) {
	start := time.Now()
	ins, ok := s.reg.Get(req.Instance)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown instance "+req.Instance, 0)
		return
	}
	deadline := req.Deadline(start, s.cfg.Deadline, s.cfg.MaxDeadline)
	ctx, cancel := context.WithDeadline(r.Context(), deadline)
	defer cancel()

	out, err := s.getMatch(ctx, ins, req, deadline)
	if err != nil {
		s.writeFailure(w, r, err)
		return
	}
	s.met.requests.Add(1)
	// Exemplar links this latency bucket to the request's trace on /trace.
	s.met.latency.ObserveEx(time.Since(start).Microseconds(), traceOf(reqFromCtx(r.Context())))
	resp := s.matchResponse(ins, req, out, time.Since(start))
	var mates []byte
	if out.hit != nil && req.Mates {
		mates = out.hit.mates()
	}
	writeMatch(w, resp, mates)
}

// matchResponse shapes an outcome into the wire form.
func (s *Server) matchResponse(ins *Instance, req *Request, out *matchOutcome, elapsed time.Duration) *MatchResponse {
	resp := &MatchResponse{
		Instance:  ins.Name,
		Algorithm: strings.ToLower(req.Algorithm),
		Source:    out.source,
		Degraded:  out.degraded,
		RuntimeMS: float64(elapsed.Microseconds()) / 1e3,
	}
	if resp.Algorithm == "" {
		resp.Algorithm = "msbfsgraft"
	}
	switch {
	case out.res != nil:
		resp.Cardinality = out.res.Cardinality
		resp.Complete = out.res.Complete
		resp.Engine = req.Options().Algorithm.String()
		if st := out.res.Stats; st != nil {
			resp.InitialCardinality = st.InitialCardinality
			resp.Phases = st.Phases
		}
		if req.Mates {
			resp.MateX, resp.MateY = out.res.MateX, out.res.MateY
		}
	case out.lastGood != nil:
		resp.Cardinality = out.lastGood.Cardinality
		resp.Complete = out.lastGood.Complete
		resp.Engine = out.lastGood.Engine
		if req.Mates {
			resp.MateX, resp.MateY = out.lastGood.MateX, out.lastGood.MateY
		}
	}
	return resp
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request, req *Request) {
	ins, ok := s.reg.Get(req.Instance)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown instance "+req.Instance, 0)
		return
	}
	writeJSON(w, http.StatusOK, s.verify(ins, req.MateX, req.MateY))
}

// verify checks a client's matching of ins: a pair that is not a valid
// matching gets the reason why, and a valid one is proved maximum or not
// (proveMaximum).
func (s *Server) verify(ins *Instance, mateX, mateY []int32) *VerifyResponse {
	resp := &VerifyResponse{Instance: ins.Name}
	m := &matching.Matching{MateX: mateX, MateY: mateY}
	card, err := m.VerifyCardinality(ins.Graph)
	if err != nil {
		resp.Reason = err.Error()
		return resp
	}
	resp.Valid = true
	if err := s.proveMaximum(ins, m, card); err != nil {
		resp.Reason = err.Error()
	} else {
		resp.Maximum = true
	}
	return resp
}

func (s *Server) handleDecompose(w http.ResponseWriter, r *http.Request, req *Request) {
	start := time.Now()
	ins, ok := s.reg.Get(req.Instance)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown instance "+req.Instance, 0)
		return
	}
	deadline := req.Deadline(start, s.cfg.Deadline, s.cfg.MaxDeadline)
	ctx, cancel := context.WithDeadline(r.Context(), deadline)
	defer cancel()

	out, err := s.getMatch(ctx, ins, req, deadline)
	if err != nil {
		s.writeFailure(w, r, err)
		return
	}
	mateX, mateY, complete := outcomeMates(out)
	if !complete {
		// A non-maximum matching yields a non-canonical DM split —
		// wrong structure, not a degraded answer. Refuse instead.
		writeError(w, http.StatusServiceUnavailable,
			"no maximum matching available within deadline; retry with a larger deadline_ms", 0)
		return
	}
	m := &matching.Matching{MateX: mateX, MateY: mateY}
	d, err := dmperm.Decompose(ins.Graph, m)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error(), 0)
		return
	}
	s.met.requests.Add(1)
	resp := &DecomposeResponse{
		Instance: ins.Name,
		Match:    *s.matchResponse(ins, req, out, time.Since(start)),
		HRows:    d.HRows, HCols: d.HCols,
		SSize: d.SSize,
		VRows: d.VRows, VCols: d.VCols,
		Blocks: d.NumBlocks(),
	}
	for _, b := range d.Blocks {
		if b > resp.LargestBlock {
			resp.LargestBlock = b
		}
	}
	if req.Mates {
		resp.RowPerm, resp.ColPerm = d.RowPerm, d.ColPerm
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSolve runs the paper's §I motivating application over an instance:
// a BTF-ordered sparse solve on a diagonally-dominant system synthesized
// deterministically from the instance's nonzero pattern (so clients can
// exercise the full matching → DM → solve pipeline without shipping
// values).
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request, req *Request) {
	start := time.Now()
	ins, ok := s.reg.Get(req.Instance)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown instance "+req.Instance, 0)
		return
	}
	g := ins.Graph
	if g.NX() != g.NY() {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("instance is %dx%d; btfsolve needs a square pattern", g.NX(), g.NY()), 0)
		return
	}
	n := g.NX()
	if req.B != nil && int32(len(req.B)) != n {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("b has %d entries, instance is %dx%d", len(req.B), n, n), 0)
		return
	}
	a, err := btfsolve.NewMatrix(n, synthesizeEntries(g))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error(), 0)
		return
	}
	b := req.B
	if b == nil {
		b = make([]float64, n)
		for i := range b {
			b[i] = 1
		}
	}
	sol, err := btfsolve.Solve(a, b)
	if err != nil {
		// Structurally singular patterns are a property of the
		// instance, not a server fault.
		writeError(w, http.StatusUnprocessableEntity, err.Error(), 0)
		return
	}
	s.met.requests.Add(1)
	writeJSON(w, http.StatusOK, &SolveResponse{
		Instance:  ins.Name,
		N:         n,
		Blocks:    len(sol.Blocks),
		RuntimeMS: float64(time.Since(start).Microseconds()) / 1e3,
		X:         sol.X,
	})
}

// synthesizeEntries gives the pattern deterministic diagonally-dominant
// values: off-diagonals decay with position, and each row's diagonal
// exceeds its off-diagonal sum, so any structurally nonsingular pattern
// solves.
func synthesizeEntries(g *graftmatch.Graph) []btfsolve.Entry {
	entries := make([]btfsolve.Entry, 0, g.NumEdges()+int64(g.NX()))
	for x := int32(0); x < g.NX(); x++ {
		sum := 0.0
		diag := false
		for _, y := range g.NbrX(x) {
			if y == x {
				diag = true
				continue
			}
			v := 1.0 / float64(2+(x+y)%7)
			sum += v
			entries = append(entries, btfsolve.Entry{Row: x, Col: y, Val: v})
		}
		if diag {
			entries = append(entries, btfsolve.Entry{Row: x, Col: x, Val: sum + 1.5})
		}
	}
	return entries
}

func (s *Server) handleInstances(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required", 0)
		return
	}
	type instanceInfo struct {
		Name        string `json:"name"`
		NX          int32  `json:"nx"`
		NY          int32  `json:"ny"`
		Edges       int64  `json:"edges"`
		LastGood    int64  `json:"last_good_cardinality,omitempty"`
		LastGoodMax bool   `json:"last_good_complete,omitempty"`
	}
	var infos []instanceInfo
	for _, name := range s.reg.Names() {
		ins, _ := s.reg.Get(name)
		info := instanceInfo{
			Name:  name,
			NX:    ins.Graph.NX(),
			NY:    ins.Graph.NY(),
			Edges: ins.Graph.NumEdges(),
		}
		if lg, ok := s.cache.getLastGood(name); ok {
			info.LastGood = lg.Cardinality
			info.LastGoodMax = lg.Complete
		}
		infos = append(infos, info)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"instances": infos,
		"admission": s.adm.Stats(),
		"draining":  s.isDraining(),
	})
}

// outcomeMates extracts the matching an outcome carries.
func outcomeMates(out *matchOutcome) (mateX, mateY []int32, complete bool) {
	switch {
	case out.res != nil:
		return out.res.MateX, out.res.MateY, out.res.Complete
	case out.lastGood != nil:
		return out.lastGood.MateX, out.lastGood.MateY, out.lastGood.Complete
	default:
		return nil, nil, false
	}
}

// writeFailure maps a pipeline error onto the wire: shed → 429 with
// Retry-After, validation → 400, everything else → 500. The shed path marks
// the request log line so a 429'd client's retries stay correlatable.
func (s *Server) writeFailure(w http.ResponseWriter, r *http.Request, err error) {
	switch e := err.(type) {
	case *ShedError:
		if rc := reqFromCtx(r.Context()); rc != nil {
			rc.event = "shed"
		}
		s.met.shed.Add(1)
		retry := e.RetryAfter
		if retry < time.Second {
			retry = time.Second
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int64(retry.Seconds()+0.5)))
		writeError(w, http.StatusTooManyRequests, e.Error(), e.RetryAfter.Milliseconds())
	case *BadRequestError:
		writeError(w, http.StatusBadRequest, e.Error(), 0)
	default:
		writeError(w, http.StatusInternalServerError, err.Error(), 0)
	}
}

// writeMatch answers 200 with resp, built in a pooled buffer and written
// once with its Content-Length. mates, when non-nil, is resp's mate arrays
// already encoded (cachedResult.mates).
func writeMatch(w http.ResponseWriter, resp *MatchResponse, mates []byte) {
	buf := getBuf()
	defer putBuf(buf)
	if err := encodeMatch(buf, resp, mates); err != nil {
		writeError(w, http.StatusInternalServerError, "encoding answer: "+err.Error(), 0)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes()) // a write error means the client went away
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// Encode error dropped deliberately: it means the client went away.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string, retryAfterMS int64) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(&ErrorResponse{Error: msg, RetryAfterMS: retryAfterMS})
}

// NewHTTPServer wraps a handler in an http.Server hardened against slow and
// hostile clients: header and body read timeouts (slowloris defense), an
// idle timeout to reclaim abandoned keep-alives, and a header size cap. No
// WriteTimeout — response time is already bounded by the request deadline
// ceiling, and a WriteTimeout would sever slow-but-legitimate clients
// downloading large mate arrays.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
}
