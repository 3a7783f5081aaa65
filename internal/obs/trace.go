package obs

import (
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Span is one completed phase/step/superstep interval. Cat groups spans by
// emitter ("core", "pf", "pr", "dist", "cluster", "checkpoint", "request",
// "exps"); Name is the span kind within the emitter ("phase", "top-down",
// "superstep", ...); Arg carries one span-specific magnitude (frontier
// size, cardinality, bytes) surfaced in the Chrome trace's args.
//
// Lane and Trace carry the cross-process dimensions: Lane 0 is the local
// process, lane k>0 is remote rank k-1 (the cluster coordinator ingests each
// rank's superstep spans on the rank's lane, which becomes a separate
// process row in the Chrome trace); Trace is the run/request correlation id
// (0 = untagged).
type Span struct {
	Cat   string
	Name  string
	Start int64 // nanoseconds since the Unix epoch
	Dur   int64 // nanoseconds
	Arg   int64
	Lane  int32  // 0 = local process; k>0 = remote rank k-1
	Trace uint64 // run/request correlation id; 0 = none
}

// Tracer records spans into a bounded ring buffer: the newest TraceCapacity
// spans win and older ones are dropped (counted, never blocking). Recording
// is a mutex-guarded struct store — no allocation — and happens once per
// phase/step on driver goroutines, so the lock is uncontended in practice.
type Tracer struct {
	mu    sync.Mutex
	ring  []Span
	next  int
	total uint64
}

// newTracer builds a tracer with capacity spans of history.
func newTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 16384
	}
	return &Tracer{ring: make([]Span, capacity)}
}

// Record stores one completed span. Nil-safe and allocation-free.
func (t *Tracer) Record(cat, name string, start time.Time, d time.Duration, arg int64) {
	if t == nil {
		return
	}
	t.put(Span{Cat: cat, Name: name, Start: start.UnixNano(), Dur: int64(d), Arg: arg})
}

// RecordTagged stores one completed span carrying the trace correlation id.
// Nil-safe and allocation-free.
func (t *Tracer) RecordTagged(cat, name string, start time.Time, d time.Duration, arg int64, trace uint64) {
	if t == nil {
		return
	}
	t.put(Span{Cat: cat, Name: name, Start: start.UnixNano(), Dur: int64(d), Arg: arg, Trace: trace})
}

// Ingest appends pre-built spans — typically a remote rank's, with Lane
// set and Start on this process's clock. Nil-safe.
func (t *Tracer) Ingest(spans []Span) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	for i := range spans {
		t.putLocked(spans[i])
	}
	t.mu.Unlock()
}

func (t *Tracer) put(s Span) {
	t.mu.Lock()
	t.putLocked(s)
	t.mu.Unlock()
}

func (t *Tracer) putLocked(s Span) {
	t.ring[t.next] = s
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
	}
	t.total++
}

// Snapshot returns the retained spans in recording order and the number of
// older spans the ring has dropped.
func (t *Tracer) Snapshot() (spans []Span, dropped uint64) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.ring)
	if t.total < uint64(n) {
		spans = make([]Span, t.total)
		copy(spans, t.ring[:t.total])
		return spans, 0
	}
	spans = make([]Span, 0, n)
	spans = append(spans, t.ring[t.next:]...)
	spans = append(spans, t.ring[:t.next]...)
	return spans, t.total - uint64(n)
}

// WriteChromeTrace renders the retained spans as Chrome trace-event JSON
// (the {"traceEvents": [...]} object form), loadable in about://tracing and
// Perfetto. Every span becomes one complete event ("ph":"X") with
// microsecond timestamps relative to the earliest span; categories map to
// stable tids so each emitter gets its own track, and lanes map to pids so
// every remote rank renders as its own process row ("rank k" process_name
// metadata) beside the local process. Spans tagged with a trace id carry it
// in args as a 16-hex string, the same form matchd returns in X-Request-Id.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans, dropped := t.Snapshot()

	// Stable per-category track ids, assigned in sorted-category order.
	cats := make([]string, 0, 8)
	seen := make(map[string]int, 8)
	lanes := make(map[int32]bool, 8)
	for i := range spans {
		if _, ok := seen[spans[i].Cat]; !ok {
			seen[spans[i].Cat] = 0
			cats = append(cats, spans[i].Cat)
		}
		lanes[spans[i].Lane] = true
	}
	sort.Strings(cats)
	for i, c := range cats {
		seen[c] = i + 1
	}
	laneIDs := make([]int32, 0, len(lanes))
	for l := range lanes {
		laneIDs = append(laneIDs, l)
	}
	sort.Slice(laneIDs, func(i, j int) bool { return laneIDs[i] < laneIDs[j] })
	var t0 int64
	for i := range spans {
		if i == 0 || spans[i].Start < t0 {
			t0 = spans[i].Start
		}
	}

	buf := make([]byte, 0, 4096)
	buf = append(buf, `{"displayTimeUnit":"ms","droppedSpans":`...)
	buf = strconv.AppendUint(buf, dropped, 10)
	buf = append(buf, `,"traceEvents":[`...)
	var err error
	first := true
	// Process-name metadata first: lane 0 is this process, lane k is rank k-1.
	for _, l := range laneIDs {
		if !first {
			buf = append(buf, ',')
		}
		first = false
		buf = append(buf, `{"name":"process_name","ph":"M","pid":`...)
		buf = strconv.AppendInt(buf, int64(l)+1, 10)
		buf = append(buf, `,"args":{"name":"`...)
		if l == 0 {
			buf = append(buf, `local`...)
		} else {
			buf = append(buf, `rank `...)
			buf = strconv.AppendInt(buf, int64(l)-1, 10)
		}
		buf = append(buf, `"}}`...)
	}
	for i := range spans {
		s := &spans[i]
		if !first {
			buf = append(buf, ',')
		}
		first = false
		buf = append(buf, `{"name":`...)
		buf = appendJSONString(buf, s.Name)
		buf = append(buf, `,"cat":`...)
		buf = appendJSONString(buf, s.Cat)
		buf = append(buf, `,"ph":"X","ts":`...)
		buf = appendMicros(buf, s.Start-t0)
		buf = append(buf, `,"dur":`...)
		buf = appendMicros(buf, s.Dur)
		buf = append(buf, `,"pid":`...)
		buf = strconv.AppendInt(buf, int64(s.Lane)+1, 10)
		buf = append(buf, `,"tid":`...)
		buf = strconv.AppendInt(buf, int64(seen[s.Cat]), 10)
		buf = append(buf, `,"args":{"v":`...)
		buf = strconv.AppendInt(buf, s.Arg, 10)
		if s.Trace != 0 {
			buf = append(buf, `,"trace":"`...)
			buf = appendTraceHex(buf, s.Trace)
			buf = append(buf, '"')
		}
		buf = append(buf, `}}`...)
		if len(buf) >= 1<<15 {
			if _, err = w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	buf = append(buf, `]}`...)
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// appendTraceHex appends the fixed-width 16-hex form of a trace id — the
// same textual form TraceHex returns and matchd sets in X-Request-Id.
func appendTraceHex(buf []byte, trace uint64) []byte {
	const hex = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		buf = append(buf, hex[(trace>>uint(shift))&0xf])
	}
	return buf
}

// appendMicros appends ns as a decimal microsecond value with millisecond
// precision kept ("12345.678").
func appendMicros(buf []byte, ns int64) []byte {
	neg := ns < 0
	if neg {
		ns = -ns
		buf = append(buf, '-')
	}
	buf = strconv.AppendInt(buf, ns/1e3, 10)
	frac := ns % 1e3
	if frac != 0 {
		buf = append(buf, '.')
		buf = append(buf, byte('0'+frac/100))
		buf = append(buf, byte('0'+frac/10%10))
		buf = append(buf, byte('0'+frac%10))
	}
	return buf
}

// appendJSONString appends s as a quoted JSON string. Span names and
// categories are compile-time identifiers, but escape defensively anyway.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			buf = append(buf, '\\', c)
		case c < 0x20:
			buf = append(buf, `\u00`...)
			const hex = "0123456789abcdef"
			buf = append(buf, hex[c>>4], hex[c&0xf])
		default:
			buf = append(buf, c)
		}
	}
	return append(buf, '"')
}

// flameKey aggregates spans for the flame summary.
type flameKey struct {
	cat, name string
}

type flameRow struct {
	count           int64
	total, min, max int64
}

// WriteFlameSummary renders a human-readable aggregation of the retained
// spans: one line per (cat, name) with count, total, mean, min and max
// durations, sorted by total descending — the terminal stand-in for loading
// the Chrome trace.
func (t *Tracer) WriteFlameSummary(w io.Writer) error {
	spans, dropped := t.Snapshot()
	agg := make(map[flameKey]flameRow, 16)
	for i := range spans {
		k := flameKey{spans[i].Cat, spans[i].Name}
		r, ok := agg[k]
		d := spans[i].Dur
		if !ok || d < r.min {
			r.min = d
		}
		if d > r.max {
			r.max = d
		}
		r.count++
		r.total += d
		agg[k] = r
	}
	keys := make([]flameKey, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := agg[keys[i]], agg[keys[j]]
		if a.total != b.total {
			return a.total > b.total
		}
		if keys[i].cat != keys[j].cat {
			return keys[i].cat < keys[j].cat
		}
		return keys[i].name < keys[j].name
	})
	buf := make([]byte, 0, 256)
	buf = append(buf, "span summary ("...)
	buf = strconv.AppendInt(buf, int64(len(spans)), 10)
	buf = append(buf, " spans retained, "...)
	buf = strconv.AppendUint(buf, dropped, 10)
	buf = append(buf, " dropped)\n"...)
	if _, err := w.Write(buf); err != nil {
		return err
	}
	var err error
	for _, k := range keys {
		r := agg[k]
		buf = buf[:0]
		buf = append(buf, "  "...)
		buf = append(buf, k.cat...)
		buf = append(buf, '/')
		buf = append(buf, k.name...)
		buf = append(buf, ": count="...)
		buf = strconv.AppendInt(buf, r.count, 10)
		buf = append(buf, " total="...)
		buf = append(buf, time.Duration(r.total).String()...)
		buf = append(buf, " mean="...)
		buf = append(buf, time.Duration(r.total/r.count).String()...)
		buf = append(buf, " min="...)
		buf = append(buf, time.Duration(r.min).String()...)
		buf = append(buf, " max="...)
		buf = append(buf, time.Duration(r.max).String()...)
		buf = append(buf, '\n')
		if _, err = w.Write(buf); err != nil {
			return err
		}
	}
	return err
}
