package obs

import (
	"testing"
	"time"
)

// The zero-overhead contract: with a nil recorder (the engines' default)
// every instrumentation call — including calls through nil metric handles —
// performs zero heap allocations. This is the gate that keeps the
// observability layer off the hot paths PR 4 reclaimed.
func TestNoopRecorderZeroAlloc(t *testing.T) {
	var rec *Recorder
	c := rec.Counter("graftmatch_x_total", "")
	g := rec.Gauge("graftmatch_x", "")
	h := rec.Histogram("graftmatch_x_ns", "")
	start := time.Now()
	allocs := testing.AllocsPerRun(200, func() {
		c.Add(5)
		g.Set(9)
		h.Observe(123)
		rec.Span("core", "phase", start, time.Millisecond, 7)
		rec.PhaseDone("core", 1, 2)
		_ = c.Value()
	})
	if allocs != 0 {
		t.Errorf("no-op recorder: %v allocs/op, want 0", allocs)
	}
}

// A live recorder's per-phase hot calls are allocation-free too: counter
// adds, gauge sets, histogram observes, and span records all write into
// preallocated atomic cells or the ring buffer.
func TestLiveRecorderHotPathZeroAlloc(t *testing.T) {
	rec := New(Config{TraceCapacity: 1024})
	c := rec.Counter("graftmatch_x_total", "")
	g := rec.Gauge("graftmatch_x", "")
	h := rec.Histogram("graftmatch_x_ns", "")
	start := time.Now()
	allocs := testing.AllocsPerRun(200, func() {
		c.Add(5)
		g.Set(9)
		h.Observe(123)
		rec.Span("core", "phase", start, time.Millisecond, 7)
		_ = c.Value()
	})
	if allocs != 0 {
		t.Errorf("live recorder hot path: %v allocs/op, want 0", allocs)
	}
}

// The telemetry additions must not loosen the contract: trace-tagged spans,
// exemplar'd histogram observes, and the request-table lifecycle are all
// allocation-free on a live recorder, and the no-op recorder stays free even
// through WithTrace.
func TestTelemetryPathZeroAlloc(t *testing.T) {
	rec := New(Config{TraceCapacity: 1024})
	trace := NewTraceID()
	tagged := rec.WithTrace(trace)
	h := rec.Histogram("graftmatch_tel_ns", "")
	info := ReqInfo{ID: "deadbeef", Endpoint: "/match", State: "received"}
	start := time.Now()
	allocs := testing.AllocsPerRun(200, func() {
		tagged.Span("core", "phase", start, time.Millisecond, 7)
		h.ObserveEx(123, trace)
		tok := rec.ReqBegin(info)
		rec.ReqState(tok, "running")
		rec.ReqEnd(tok)
	})
	if allocs != 0 {
		t.Errorf("live recorder telemetry path: %v allocs/op, want 0", allocs)
	}

	var nop *Recorder
	nopTagged := nop.WithTrace(trace)
	nh := nop.Histogram("graftmatch_tel_ns", "")
	allocs = testing.AllocsPerRun(200, func() {
		nopTagged.Span("core", "phase", start, time.Millisecond, 7)
		nh.ObserveEx(123, trace)
		tok := nop.ReqBegin(info)
		nop.ReqState(tok, "running")
		nop.ReqEnd(tok)
	})
	if allocs != 0 {
		t.Errorf("no-op recorder telemetry path: %v allocs/op, want 0", allocs)
	}
}

func BenchmarkNoopRecorder(b *testing.B) {
	var rec *Recorder
	c := rec.Counter("graftmatch_x_total", "")
	h := rec.Histogram("graftmatch_x_ns", "")
	start := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
		h.Observe(int64(i))
		rec.Span("core", "phase", start, time.Microsecond, int64(i))
	}
}

func BenchmarkLiveRecorder(b *testing.B) {
	rec := New(Config{TraceCapacity: 4096})
	c := rec.Counter("graftmatch_x_total", "")
	h := rec.Histogram("graftmatch_x_ns", "")
	start := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
		h.Observe(int64(i))
		rec.Span("core", "phase", start, time.Microsecond, int64(i))
	}
}
