// Package obs is the live observability substrate: a lock-free metrics
// registry of atomic counters, gauges and histograms, a bounded span tracer
// with Chrome trace-event export, and an operational HTTP surface. It is
// stdlib-only and designed around a nil-receiver no-op default: every engine
// threads a *Recorder through its options, and when the recorder is nil each
// instrumentation call is a single nil check — zero allocations, pinned by
// alloc tests — so the hot paths the kernels run are never taxed by an
// observer that is not there.
package obs

import (
	"io"
	"math/bits"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter: one atomic cell, padded to
// a full 64-byte cache line so a hot counter never write-shares a line with
// its neighbours. Kernels sum per worker with par.Counter and add the total
// here once per step. A nil *Counter is a valid no-op, which is how an
// engine built with a nil Recorder carries its metric handles.
type Counter struct {
	n atomic.Int64
	_ [56]byte
}

// Add accumulates delta. Nil-safe.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.n.Add(delta)
}

// Value returns the current total. Nil-safe.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is a single instantaneous value (current phase, cardinality). Set
// and Value are atomic; padding keeps a hot gauge off its neighbours' lines.
type Gauge struct {
	v atomic.Int64
	_ [56]byte
}

// Set stores the current value. Nil-safe.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the current value. Nil-safe.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// numBuckets is the fixed bucket count of every Histogram: bucket i holds
// observations whose bit length is i (v <= 2^i - 1), i.e. power-of-two
// bounds from 0 up to 2^44-1 (~4.8 hours in nanoseconds, ~16 TiB in bytes),
// with the last bucket as +Inf overflow.
const numBuckets = 46

// exemplar is the most recent trace-tagged observation that landed in one
// bucket: enough to jump from a latency bucket on /metrics to the matching
// request trace on /trace.
type exemplar struct {
	value  int64
	trace  uint64
	unixNS int64
}

// Histogram is a power-of-two histogram (frontier sizes, fsync latencies).
// Observe is wait-free: three atomic adds. A nil *Histogram is a valid no-op
// handle.
//
// Exemplars live beside the counts under their own mutex: only ObserveEx
// (one call per served request, never a kernel hot path) touches it, so
// Observe stays wait-free.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [numBuckets]atomic.Int64

	exMu sync.Mutex
	ex   [numBuckets]exemplar
}

// bucketIndex maps a value to its power-of-two bucket.
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	i := bits.Len64(uint64(v))
	if i >= numBuckets {
		return numBuckets - 1
	}
	return i
}

// Observe records one value. Nil-safe.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketIndex(v)].Add(1)
}

// ObserveEx records one value like Observe and, when trace is nonzero,
// remembers it as the bucket's exemplar so the exposition can link the
// latency bucket to the request trace that produced it. Nil-safe.
func (h *Histogram) ObserveEx(v int64, trace uint64) {
	if h == nil {
		return
	}
	h.Observe(v)
	if trace == 0 {
		return
	}
	now := nowUnixNano()
	b := bucketIndex(v)
	h.exMu.Lock()
	h.ex[b] = exemplar{value: v, trace: trace, unixNS: now}
	h.exMu.Unlock()
}

// Exemplar is the JSON form of one bucket's retained exemplar.
type Exemplar struct {
	Bucket int    `json:"bucket"`
	Value  int64  `json:"value"`
	Trace  string `json:"trace"`
	UnixNS int64  `json:"unix_ns"`
}

// HistSnapshot is a folded histogram: total count, sum, and the per-bucket
// counts (non-cumulative; bucket i covers values of bit length i).
type HistSnapshot struct {
	Count     int64             `json:"count"`
	Sum       int64             `json:"sum"`
	Buckets   [numBuckets]int64 `json:"buckets"`
	Exemplars []Exemplar        `json:"exemplars,omitempty"`
}

// snapshot reads the counts and the retained exemplars.
func (h *Histogram) snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	for b := 0; b < numBuckets; b++ {
		s.Buckets[b] = h.buckets[b].Load()
	}
	h.exMu.Lock()
	for b := 0; b < numBuckets; b++ {
		if e := h.ex[b]; e.trace != 0 {
			s.Exemplars = append(s.Exemplars, Exemplar{
				Bucket: b, Value: e.value, Trace: TraceHex(e.trace), UnixNS: e.unixNS,
			})
		}
	}
	h.exMu.Unlock()
	return s
}

// nowUnixNano is the single time dependency of the metrics layer, split out
// so exemplar tests can pin timestamps.
var nowUnixNano = func() int64 { return time.Now().UnixNano() }

// bucketBound returns the inclusive upper bound of bucket i, or -1 for the
// +Inf overflow bucket.
func bucketBound(i int) int64 {
	if i >= numBuckets-1 {
		return -1
	}
	return int64(1)<<uint(i) - 1
}

// Registry holds the named metrics. Registration (get-or-create) takes a
// mutex and happens once per handle at engine construction; the handles
// themselves are lock-free. Export walks the maps under the same mutex —
// registration is rare and export is off the hot path, so contention is nil.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	help     map[string]string
}

// newRegistry builds an empty registry.
func newRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		help:     make(map[string]string),
	}
}

// Counter returns the named counter, creating it on first use. The first
// registration's help string wins.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
		r.help[name] = help
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
		r.help[name] = help
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name, help string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
		r.help[name] = help
	}
	return h
}

// sortedKeys returns the map's keys in sorted order (deterministic export).
func sortedCounterKeys(m map[string]*Counter) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func sortedGaugeKeys(m map[string]*Gauge) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func sortedHistKeys(m map[string]*Histogram) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers, counters and gauges as single
// samples, histograms as cumulative le-labelled buckets plus _sum/_count.
// Output is sorted by metric name and built with append/strconv so the
// export loops allocate only the one reusable line buffer.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	buf := make([]byte, 0, 256)
	var err error
	flush := func() bool {
		if err != nil {
			return false
		}
		_, err = w.Write(buf)
		buf = buf[:0]
		return err == nil
	}
	for _, name := range sortedCounterKeys(r.counters) {
		c := r.counters[name]
		buf = appendHeader(buf, name, r.help[name], "counter")
		buf = append(buf, name...)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, c.Value(), 10)
		buf = append(buf, '\n')
		if !flush() {
			return err
		}
	}
	for _, name := range sortedGaugeKeys(r.gauges) {
		g := r.gauges[name]
		buf = appendHeader(buf, name, r.help[name], "gauge")
		buf = append(buf, name...)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, g.Value(), 10)
		buf = append(buf, '\n')
		if !flush() {
			return err
		}
	}
	for _, name := range sortedHistKeys(r.hists) {
		s := r.hists[name].snapshot()
		var exAt [numBuckets]*Exemplar
		for i := range s.Exemplars {
			exAt[s.Exemplars[i].Bucket] = &s.Exemplars[i]
		}
		buf = appendHeader(buf, name, r.help[name], "histogram")
		cum := int64(0)
		for b := 0; b < numBuckets; b++ {
			cum += s.Buckets[b]
			if s.Buckets[b] == 0 && b < numBuckets-1 {
				continue // keep the exposition compact: skip empty finite buckets
			}
			buf = append(buf, name...)
			buf = append(buf, `_bucket{le="`...)
			if bound := bucketBound(b); bound >= 0 {
				buf = strconv.AppendInt(buf, bound, 10)
			} else {
				buf = append(buf, "+Inf"...)
			}
			buf = append(buf, `"} `...)
			buf = strconv.AppendInt(buf, cum, 10)
			if e := exAt[b]; e != nil {
				// OpenMetrics-style exemplar: ties the bucket to the last
				// trace id observed in it, timestamped in seconds.
				buf = append(buf, ` # {trace_id="`...)
				buf = append(buf, e.Trace...)
				buf = append(buf, `"} `...)
				buf = strconv.AppendInt(buf, e.Value, 10)
				buf = append(buf, ' ')
				buf = strconv.AppendInt(buf, e.UnixNS/1e9, 10)
			}
			buf = append(buf, '\n')
		}
		buf = append(buf, name...)
		buf = append(buf, "_sum "...)
		buf = strconv.AppendInt(buf, s.Sum, 10)
		buf = append(buf, '\n')
		buf = append(buf, name...)
		buf = append(buf, "_count "...)
		buf = strconv.AppendInt(buf, s.Count, 10)
		buf = append(buf, '\n')
		if !flush() {
			return err
		}
	}
	return err
}

// appendHeader appends the # HELP / # TYPE preamble for one metric.
func appendHeader(buf []byte, name, help, typ string) []byte {
	buf = append(buf, "# HELP "...)
	buf = append(buf, name...)
	buf = append(buf, ' ')
	buf = append(buf, help...)
	buf = append(buf, "\n# TYPE "...)
	buf = append(buf, name...)
	buf = append(buf, ' ')
	buf = append(buf, typ...)
	buf = append(buf, '\n')
	return buf
}

// MetricsSnapshot is the JSON shape of the registry: folded counter and
// gauge values plus per-histogram bucket snapshots.
type MetricsSnapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot folds every metric into a MetricsSnapshot.
func (r *Registry) Snapshot() MetricsSnapshot {
	if r == nil {
		return MetricsSnapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := MetricsSnapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// BucketBounds returns the inclusive upper bounds of the histogram buckets
// (the last entry, -1, is the +Inf overflow bucket). Exposed so tests and
// the JSON surface can label HistSnapshot.Buckets.
func BucketBounds() [numBuckets]int64 {
	var b [numBuckets]int64
	for i := range b {
		b[i] = bucketBound(i)
	}
	return b
}
