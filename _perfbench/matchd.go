package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"graftmatch/internal/gen"
	"graftmatch/internal/hk"
	"graftmatch/internal/matching"
	"graftmatch/internal/mmio"
	"graftmatch/internal/par"
	"graftmatch/internal/serve"
)

// offeredRPS is the open-loop request rate: 25% of the saturation rate
// (620/s) measured once on a 2-core Intel Xeon VM with Go 1.24, with two
// callers sending the mix back to back for 20 s (baseline.json). It is frozen
// so that every run offers the same load. At 40% the median swung by half
// between runs whenever the host stole CPU time.
const offeredRPS = 155

// maxGenLagMS bounds how late the generator may hand out requests (p99)
// before a run is declared invalid instead of reported. Go preempts a
// goroutine after 10 ms and a busy host can stall a virtual CPU for tens of
// ms, so only a lag well beyond both means the generator fell behind.
const maxGenLagMS = 50

type reqKind int

const (
	kindHit      reqKind = iota // cached /match, no mates: small in, small out
	kindHitMates                // cached /match with mates: ~55 KB out
	kindCompute                 // no_cache greedy /match: engine work under admission
	kindVerify                  // /verify with full mate arrays: ~60 KB in
	numKinds
)

var kindNames = [numKinds]string{"hit", "hit_mates", "compute", "verify"}

// mix is the share of each kind. It is an assumption: no observed matchd
// traffic exists to take it from. Cached lookups of a fixed registry are
// assumed the common case (40% without mates, 30% with them, the encoder's
// load); forced recomputes and client-side checks the rarer one (15% each,
// the engine's and the decoder's load). With these shares the median falls
// inside the hit_mates band, not on a gap between two bands. The per-kind
// serve.*_p50 metrics let a change be judged per kind whatever the mix.
var mix = [numKinds]float64{0.40, 0.30, 0.15, 0.15}

func pickKind(rng *rand.Rand) reqKind {
	u := rng.Float64()
	for k := reqKind(0); k < numKinds-1; k++ {
		if u < mix[k] {
			return k
		}
		u -= mix[k]
	}
	return numKinds - 1
}

// matchdBench serves a registry of generated instances from an in-process
// serve.Server behind httptest on loopback.
type matchdBench struct {
	insts  []instance
	bodies [][numKinds][]byte
	dir    string
	pool   *par.Pool
	hs     *httptest.Server
	client *http.Client
	conns  int

	writeMS, readMS, verifyMS []float64

	// warming accepts a computed answer to a cache-hit request: the warm-up
	// requests are the ones that fill the cache.
	warming bool

	// known holds, per instance and kind, the first measured response that
	// passed every check. A later response equal to it but for runtime_ms is
	// accepted without decoding, so the client's JSON work stays out of the
	// measured CPU time.
	mu    sync.Mutex
	known [][numKinds]knownBody
}

type knownBody struct {
	head, tail     []byte // the body before and after the runtime_ms value
	source, engine string
}

// setupMatchd builds a registry of six 8k-per-side low-matching instances,
// two of each kind: with three, a run's CPU time per request moved by a
// tenth with the seed.
func setupMatchd(cfg config) (bench, error) {
	s := seeds(cfg.seed, 6)
	var gs []instance
	for i := 0; i < len(s); i += 3 {
		gs = append(gs,
			instance{name: fmt.Sprintf("weblike-6-%d", i), g: gen.WebLike(13, 6, 0.30, s[i])},
			instance{name: fmt.Sprintf("rmat-8-%d", i), g: gen.RMAT(13, 8, 0.57, 0.19, 0.19, s[i+1])},
			instance{name: fmt.Sprintf("weblike-7-%d", i), g: gen.WebLike(13, 7, 0.40, s[i+2])},
		)
	}
	b := &matchdBench{
		dir:   filepath.Join(cfg.outDir, fmt.Sprintf("registry-%d", os.Getpid())),
		conns: runtime.GOMAXPROCS(0),
		known: make([][numKinds]knownBody, len(gs)),
	}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return nil, err
	}
	for i, in := range gs {
		m := matching.New(in.g.NX(), in.g.NY())
		hk.Run(in.g, m)
		in.card = m.Cardinality()
		start := time.Now()
		if err := matching.VerifyMaximum(in.g, m); err != nil {
			b.close()
			return nil, fmt.Errorf("oracle for %s: %w", in.name, err)
		}
		b.verifyMS = append(b.verifyMS, ms(time.Since(start)))

		path := filepath.Join(b.dir, in.name+".mtx")
		start = time.Now()
		if err := mmio.WriteFile(path, in.g); err != nil {
			b.close()
			return nil, err
		}
		b.writeMS = append(b.writeMS, ms(time.Since(start)))
		start = time.Now()
		back, err := mmio.ReadFile(path)
		if err != nil {
			b.close()
			return nil, err
		}
		b.readMS = append(b.readMS, ms(time.Since(start)))
		if back.NumEdges() != in.g.NumEdges() || back.NX() != in.g.NX() || back.NY() != in.g.NY() {
			b.close()
			return nil, fmt.Errorf("%s: Matrix Market round trip changed the graph", in.name)
		}
		gs[i] = in

		var bodies [numKinds][]byte
		for k, r := range [numKinds]serve.Request{
			kindHit:      {Instance: in.name},
			kindHitMates: {Instance: in.name, Mates: true},
			kindCompute:  {Instance: in.name, Initializer: "greedy", NoCache: true},
			kindVerify:   {Instance: in.name, MateX: m.MateX, MateY: m.MateY},
		} {
			if bodies[k], err = json.Marshal(r); err != nil {
				b.close()
				return nil, err
			}
		}
		b.bodies = append(b.bodies, bodies)
	}
	b.insts = gs

	reg, err := serve.LoadRegistry(b.dir)
	if err != nil {
		b.close()
		return nil, err
	}
	b.pool = par.NewPool(0)
	srv, err := serve.NewServer(serve.Config{Registry: reg, Pool: b.pool})
	if err != nil {
		b.close()
		return nil, err
	}
	b.hs = httptest.NewServer(srv.Handler())
	b.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     b.conns,
		MaxIdleConnsPerHost: b.conns,
	}}
	// Warm-up: every request once, which also fills the result cache.
	b.warming = true
	defer func() { b.warming = false }()
	for i := range b.insts {
		for k := reqKind(0); k < numKinds; k++ {
			if r := b.do(i, k, time.Now()); r.err != "" {
				b.close()
				return nil, fmt.Errorf("warm-up %s %s: %s", b.insts[i].name, kindNames[k], r.err)
			}
		}
	}
	return b, nil
}

func (b *matchdBench) close() {
	if b.hs != nil {
		b.hs.Close()
	}
	if b.client != nil {
		b.client.CloseIdleConnections()
	}
	if b.pool != nil {
		b.pool.Close()
	}
	_ = os.RemoveAll(b.dir) // scratch files; a leftover is harmless
}

// reqResult is one request's outcome, timed on the client.
type reqResult struct {
	kind            reqKind
	due, sent, done time.Time
	bytes           int
	status          int
	source, engine  string
	degraded        bool
	verified        time.Duration // time spent in VerifyMaximum on returned mates
	err             string        // "" when the answer checked out
}

// do sends one request, reads the whole response, and checks it.
func (b *matchdBench) do(i int, k reqKind, due time.Time) reqResult {
	r := reqResult{kind: k, due: due, sent: time.Now()}
	path := "/match"
	if k == kindVerify {
		path = "/verify"
	}
	resp, err := b.client.Post(b.hs.URL+path, "application/json", bytes.NewReader(b.bodies[i][k]))
	if err != nil {
		r.done = time.Now()
		r.err = err.Error()
		return r
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.done = time.Now()
	r.status = resp.StatusCode
	r.bytes = len(data)
	if err != nil {
		r.err = err.Error()
		return r
	}
	if resp.StatusCode != http.StatusOK {
		r.err = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		return r
	}
	head, tail := splitRuntime(data)
	b.mu.Lock()
	kb := b.known[i][k]
	b.mu.Unlock()
	if kb.head != nil && bytes.Equal(kb.head, head) && bytes.Equal(kb.tail, tail) {
		r.source, r.engine = kb.source, kb.engine
		return r
	}
	r.err = b.checkBody(i, k, data, &r)
	if r.err == "" && !b.warming && kb.head == nil {
		b.mu.Lock()
		b.known[i][k] = knownBody{head: head, tail: tail, source: r.source, engine: r.engine}
		b.mu.Unlock()
	}
	return r
}

var runtimeKey = []byte(`"runtime_ms":`)

// splitRuntime cuts the value of the "runtime_ms" field, which differs
// between otherwise identical /match responses, out of a body.
func splitRuntime(data []byte) (head, tail []byte) {
	i := bytes.Index(data, runtimeKey)
	if i < 0 {
		return data, []byte{}
	}
	j := i + len(runtimeKey)
	for j < len(data) && data[j] != ',' && data[j] != '}' {
		j++
	}
	return data[:i], data[j:]
}

func (b *matchdBench) checkBody(i int, k reqKind, data []byte, r *reqResult) string {
	in := b.insts[i]
	if k == kindVerify {
		var v serve.VerifyResponse
		if err := json.Unmarshal(data, &v); err != nil {
			return err.Error()
		}
		if !v.Valid || !v.Maximum {
			return fmt.Sprintf("/verify rejected the oracle's matching: %s", v.Reason)
		}
		return ""
	}
	var m serve.MatchResponse
	if err := json.Unmarshal(data, &m); err != nil {
		return err.Error()
	}
	r.source, r.engine, r.degraded = m.Source, m.Engine, m.Degraded
	wantSource := m.Source == "cache" || m.Source == "inflight" || b.warming
	if k == kindCompute {
		wantSource = m.Source == "computed"
	}
	switch {
	case m.Degraded || !m.Complete:
		return fmt.Sprintf("%s: degraded answer (source %s)", in.name, m.Source)
	case m.Cardinality != in.card:
		return fmt.Sprintf("%s: cardinality %d, oracle %d", in.name, m.Cardinality, in.card)
	case !wantSource:
		return fmt.Sprintf("%s %s: unexpected source %q", in.name, kindNames[k], m.Source)
	case k != kindHitMates:
		return ""
	}
	start := time.Now()
	err := matching.VerifyMaximum(in.g, &matching.Matching{MateX: m.MateX, MateY: m.MateY})
	r.verified = time.Since(start)
	if err != nil {
		return fmt.Sprintf("%s: returned mates: %v", in.name, err)
	}
	return ""
}

type job struct {
	inst int
	kind reqKind
	due  time.Time
}

// load is one open-loop phase: a generator goroutine schedules arrivals at
// fixed intervals of 1/offeredRPS and hands each to one of b.conns senders,
// each holding one connection. A request waiting for a free sender is
// client-side backlog; its latency still counts from its due time.
type load struct {
	results []reqResult
	lagMS   []float64
	backlog int
	start   time.Time
	end     time.Time // last completion
}

func (b *matchdBench) openLoop(rng *rand.Rand, d time.Duration) *load {
	// Sized to hold every request of the phase, so the generator never
	// blocks on a stalled server; the backlog it reaches is reported.
	jobs := make(chan job, int(offeredRPS*d.Seconds())+64)
	perSender := make([][]reqResult, b.conns)
	var wg sync.WaitGroup
	for w := 0; w < b.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range jobs {
				perSender[w] = append(perSender[w], b.do(j.inst, j.kind, j.due))
			}
		}(w)
	}
	l := &load{start: time.Now()}
	end := l.start.Add(d)
	interval := time.Second / offeredRPS
	for next := l.start; next.Before(end); next = next.Add(interval) {
		if wait := time.Until(next); wait > 0 {
			time.Sleep(wait)
		}
		l.lagMS = append(l.lagMS, ms(time.Since(next)))
		l.backlog = max(l.backlog, len(jobs))
		jobs <- job{inst: rng.Intn(len(b.insts)), kind: pickKind(rng), due: next}
	}
	close(jobs)
	wg.Wait()
	for _, rs := range perSender {
		l.results = append(l.results, rs...)
	}
	for _, r := range l.results {
		if r.done.After(l.end) {
			l.end = r.done
		}
	}
	return l
}

// sampler polls the pool backlog and the admission queue of a traced run.
type sampler struct {
	stop                   chan struct{}
	wg                     sync.WaitGroup
	poolBacklog, queuedMax int64
}

func (b *matchdBench) startSampler() *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			s.poolBacklog = max(s.poolBacklog, int64(b.pool.Backlog()))
			s.queuedMax = max(s.queuedMax, b.admissionQueued())
		}
	}()
	return s
}

func (s *sampler) finish() {
	close(s.stop)
	s.wg.Wait()
}

// admissionQueued reads the queued requests of every admission class from
// GET /instances; -1 if the listing fails.
func (b *matchdBench) admissionQueued() int64 {
	resp, err := b.client.Get(b.hs.URL + "/instances")
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	var listing struct {
		Admission []serve.ClassStats `json:"admission"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		return -1
	}
	var q int64
	for _, c := range listing.Admission {
		q += c.Queued
	}
	return q
}

func (b *matchdBench) run(cfg config) (*report, error) {
	rep := newReport()
	rng := rand.New(rand.NewSource(cfg.seed))
	d := time.Duration(cfg.seconds * float64(time.Second))
	var alloc allocMeter
	var untraced, traced *load
	var smp *sampler
	if cfg.trace {
		untraced = b.openLoop(rng, d/2)
		smp = b.startSampler()
		traced = b.openLoop(rng, d/2)
		smp.finish()
	} else {
		alloc.start()
		cpuStart := cpuTime()
		untraced = b.openLoop(rng, d)
		rep.e2e["cpu_ms_per_op"] = ms(cpuTime()-cpuStart) / float64(max(len(untraced.results), 1))
		alloc.stop()
	}

	var lat, lagMS []float64
	var service [numKinds][]float64
	var matches, hits, fallbacks, respBytes int64
	all := untraced.results
	if traced != nil {
		all = append(append([]reqResult(nil), all...), traced.results...)
	}
	for _, l := range []*load{untraced, traced} {
		if l != nil {
			lagMS = append(lagMS, l.lagMS...)
			rep.layer["bench.backlog_max"] = max(rep.layer["bench.backlog_max"], float64(l.backlog))
		}
	}
	for _, r := range untraced.results {
		lat = append(lat, ms(r.done.Sub(r.due)))
	}
	for _, r := range all {
		rep.attempted++
		respBytes += int64(r.bytes)
		service[r.kind] = append(service[r.kind], ms(r.done.Sub(r.sent)))
		switch {
		case r.status == http.StatusTooManyRequests:
			rep.layer["serve.shed"]++
		case r.degraded:
			rep.layer["serve.degraded"]++
		}
		if r.kind != kindVerify && r.status == http.StatusOK {
			matches++
			if r.source == "cache" || r.source == "inflight" {
				hits++
			}
			if r.engine != "MS-BFS-Graft" {
				fallbacks++
			}
		}
		if r.err != "" {
			rep.fail("matchd %s: %s", kindNames[r.kind], r.err)
		}
	}
	lagP99 := quantile(lagMS, 99)
	rep.layer["bench.gen_lag_ms_p99"] = lagP99
	if lagP99 > maxGenLagMS {
		return nil, fmt.Errorf("invalid run: the generator ran %.1f ms late at p99 (limit %d ms)", lagP99, maxGenLagMS)
	}

	tail := workloads["matchd"].tailPct
	rep.e2e["op_ms_p50"] = quantile(lat, 50)
	rep.layer["wall.op_ms_p50"] = quantile(lat, 50)
	rep.layer["wall.op_ms_tail"] = quantile(lat, tail)
	rep.layer["bench.req_ms_p99"] = quantile(lat, 99)
	untracedGood := 0
	for _, r := range untraced.results {
		if r.err == "" {
			untracedGood++
		}
	}
	rep.layer["wall.ops_per_s"] = float64(untracedGood) / untraced.end.Sub(untraced.start).Seconds()
	alloc.record(rep, len(untraced.results))

	rep.layer["serve.hit_ms_p50"] = quantile(service[kindHit], 50)
	rep.layer["serve.hit_mates_ms_p50"] = quantile(service[kindHitMates], 50)
	rep.layer["serve.compute_ms_p50"] = quantile(service[kindCompute], 50)
	rep.layer["serve.verify_ms_p50"] = quantile(service[kindVerify], 50)
	rep.layer["serve.cache_hit_ratio"] = float64(hits) / float64(max(matches, 1))
	rep.layer["serve.resp_kb_mean"] = float64(respBytes) / float64(max(rep.attempted, 1)) / 1024
	rep.layer["supervise.fallbacks"] = float64(fallbacks)
	rep.layer["mmio.write_ms"] = mean(b.writeMS)
	rep.layer["mmio.read_ms"] = mean(b.readMS)
	rep.layer["matching.verify_ms"] = mean(b.verifyMS)
	if !cfg.trace {
		return rep, nil
	}
	rep.layer["par.pool_backlog_max"] = float64(smp.poolBacklog)
	rep.layer["serve.queued_max"] = float64(smp.queuedMax)
	rep.layer["serve.decode_ms"] = b.decodeMS()

	t := newTracer()
	var tracedLat []float64
	for op, r := range traced.results {
		tracedLat = append(tracedLat, ms(r.done.Sub(r.due)))
		root := t.reserve()
		t.add("serve", kindNames[r.kind], root, int64(op+1), r.sent, r.done)
		end := r.done
		if r.verified > 0 {
			end = r.done.Add(r.verified)
			t.add("matching", "VerifyMaximum", root, int64(op+1), r.done, end)
		}
		t.finish(root, "bench", "request", int64(op+1), r.due, end)
	}
	rep.layer["bench.trace_overhead_ms"] = quantile(tracedLat, 50) - rep.layer["wall.op_ms_p50"]
	return rep, finishTrace(t, cfg, "matchd", len(traced.results), rep)
}

// decodeMS is the mean time of serve.DecodeRequest over the workload's
// request bodies, weighted by the mix.
func (b *matchdBench) decodeMS() float64 {
	const reps = 20
	total := 0.0
	for k := reqKind(0); k < numKinds; k++ {
		var d time.Duration
		for i := range b.bodies {
			for n := 0; n < reps; n++ {
				start := time.Now()
				if _, err := serve.DecodeRequest(b.bodies[i][k], serve.Caps{}); err != nil {
					return -1
				}
				d += time.Since(start)
			}
		}
		total += mix[k] * ms(d) / float64(reps*len(b.bodies))
	}
	return total
}
