package obs

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// Counters and gauges are padded to whole cache lines, so two hot metrics
// never write-share a line.
func TestMetricCellsAreCacheLineMultiples(t *testing.T) {
	if s := unsafe.Sizeof(Counter{}); s%64 != 0 {
		t.Errorf("Counter is %d bytes, not a multiple of 64", s)
	}
	if s := unsafe.Sizeof(Gauge{}); s%64 != 0 {
		t.Errorf("Gauge is %d bytes, not a multiple of 64", s)
	}
}

func TestCounterConcurrentAggregation(t *testing.T) {
	const workers, perWorker = 8, 10000
	reg := newRegistry()
	c := reg.Counter("x", "test")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Errorf("Value = %d, want %d", got, workers*perWorker)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	reg := newRegistry()
	a := reg.Counter("same", "first help wins")
	b := reg.Counter("same", "ignored")
	if a != b {
		t.Error("same name returned distinct counters")
	}
	if reg.help["same"] != "first help wins" {
		t.Errorf("help = %q", reg.help["same"])
	}
	if g1, g2 := reg.Gauge("g", ""), reg.Gauge("g", ""); g1 != g2 {
		t.Error("same name returned distinct gauges")
	}
	if h1, h2 := reg.Histogram("h", ""), reg.Histogram("h", ""); h1 != h2 {
		t.Error("same name returned distinct histograms")
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := newRegistry()
	h := reg.Histogram("h", "test")
	// Values chosen to land in known power-of-two buckets: bit length i
	// means bucket i (v <= 2^i - 1).
	h.Observe(0) // bucket 0
	h.Observe(1) // bucket 1
	h.Observe(2) // bucket 2
	h.Observe(3) // bucket 2
	h.Observe(1000)
	h.Observe(-5) // clamps to bucket 0
	s := h.snapshot()
	if s.Count != 6 {
		t.Errorf("Count = %d, want 6", s.Count)
	}
	if s.Sum != 0+1+2+3+1000-5 {
		t.Errorf("Sum = %d", s.Sum)
	}
	if s.Buckets[0] != 2 || s.Buckets[1] != 1 || s.Buckets[2] != 2 {
		t.Errorf("buckets = %v", s.Buckets[:3])
	}
	if s.Buckets[bucketIndex(1000)] != 1 {
		t.Errorf("bucket for 1000 empty")
	}
	// Overflow lands in the +Inf bucket.
	h.Observe(int64(1) << 60)
	if got := h.snapshot().Buckets[numBuckets-1]; got != 1 {
		t.Errorf("+Inf bucket = %d, want 1", got)
	}
}

func TestBucketBoundsMonotone(t *testing.T) {
	b := BucketBounds()
	if b[0] != 0 || b[1] != 1 || b[2] != 3 {
		t.Errorf("bounds start %v", b[:3])
	}
	if b[numBuckets-1] != -1 {
		t.Errorf("last bound = %d, want -1 (+Inf)", b[numBuckets-1])
	}
	for i := 1; i < numBuckets-1; i++ {
		if b[i] <= b[i-1] {
			t.Errorf("bounds not increasing at %d: %d <= %d", i, b[i], b[i-1])
		}
	}
}

func TestWritePrometheusShape(t *testing.T) {
	reg := newRegistry()
	reg.Counter("graftmatch_edges_total", "edges traversed").Add(42)
	reg.Gauge("graftmatch_phase", "current phase").Set(7)
	h := reg.Histogram("graftmatch_fsync_ns", "fsync latency")
	h.Observe(3)
	h.Observe(100)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	for _, want := range []string{
		"# HELP graftmatch_edges_total edges traversed\n",
		"# TYPE graftmatch_edges_total counter\n",
		"graftmatch_edges_total 42\n",
		"# TYPE graftmatch_phase gauge\n",
		"graftmatch_phase 7\n",
		"# TYPE graftmatch_fsync_ns histogram\n",
		"graftmatch_fsync_ns_sum 103\n",
		"graftmatch_fsync_ns_count 2\n",
		`graftmatch_fsync_ns_bucket{le="+Inf"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}

	// Every sample line must parse as `name{labels} value` with an integer
	// value, and bucket counts must be cumulative (non-decreasing).
	lastCum := int64(-1)
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		v, err := strconv.ParseInt(line[i+1:], 10, 64)
		if err != nil {
			t.Fatalf("non-integer value in %q: %v", line, err)
		}
		if strings.Contains(line, "_bucket{") {
			if v < lastCum {
				t.Errorf("bucket counts not cumulative at %q", line)
			}
			lastCum = v
		}
	}
}

func TestSnapshotJSONShape(t *testing.T) {
	reg := newRegistry()
	reg.Counter("c", "").Add(5)
	reg.Gauge("g", "").Set(-3)
	reg.Histogram("h", "").Observe(9)
	s := reg.Snapshot()
	if s.Counters["c"] != 5 || s.Gauges["g"] != -3 {
		t.Errorf("snapshot = %+v", s)
	}
	hs := s.Histograms["h"]
	if hs.Count != 1 || hs.Sum != 9 {
		t.Errorf("hist snapshot = %+v", hs)
	}
}

func TestNilRegistryWriters(t *testing.T) {
	var reg *Registry
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil registry wrote %q, err %v", buf.String(), err)
	}
	s := reg.Snapshot()
	if len(s.Counters) != 0 {
		t.Errorf("nil registry snapshot %+v", s)
	}
}
