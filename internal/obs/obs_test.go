package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"graftmatch/internal/leaktest"
)

func TestMain(m *testing.M) { leaktest.Main(m) }

func TestNilRecorderIsNoop(t *testing.T) {
	var rec *Recorder
	c := rec.Counter("x", "")
	g := rec.Gauge("x", "")
	h := rec.Histogram("x", "")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil recorder returned live handles")
	}
	c.Add(1)
	g.Set(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 {
		t.Error("nil handles accumulated")
	}
	rec.Span("core", "phase", time.Now(), time.Second, 0)
	rec.RunStart("x")
	rec.SetGraph(1, 2, 3)
	rec.PhaseDone("x", 1, 2)
	rec.RunDone(true, 2)
	rec.CheckpointSaved("p", 1, time.Second)
	if s := rec.Status(); s != (RunStatus{}) {
		t.Errorf("nil recorder status %+v", s)
	}
	if rec.Registry() != nil || rec.Tracer() != nil {
		t.Error("nil recorder exposed live internals")
	}
}

func TestRecorderStatusFlow(t *testing.T) {
	rec := New(Config{})
	if len(rec.Tracer().ring) != 16384 {
		t.Errorf("default trace capacity = %d", len(rec.Tracer().ring))
	}
	rec.SetGraph(10, 20, 300)
	rec.RunStart("MS-BFS-Graft")
	s := rec.Status()
	if !s.Running || s.Complete || s.Algorithm != "MS-BFS-Graft" {
		t.Errorf("after RunStart: %+v", s)
	}
	if s.GraphRows != 10 || s.GraphCols != 20 || s.GraphEdges != 300 {
		t.Errorf("graph dims: %+v", s)
	}

	rec.PhaseDone("MS-BFS-Graft", 3, 1234)
	s = rec.Status()
	if s.Phase != 3 || s.Cardinality != 1234 {
		t.Errorf("after PhaseDone: %+v", s)
	}
	if got := rec.Gauge("graftmatch_run_phase", "").Value(); got != 3 {
		t.Errorf("phase gauge = %d", got)
	}
	if got := rec.Gauge("graftmatch_run_cardinality", "").Value(); got != 1234 {
		t.Errorf("cardinality gauge = %d", got)
	}

	rec.CheckpointSaved("/tmp/x.gmck", 4096, 2*time.Millisecond)
	s = rec.Status()
	if s.LastCheckpoint != "/tmp/x.gmck" {
		t.Errorf("checkpoint status: %+v", s)
	}
	if got := rec.Counter("graftmatch_checkpoint_bytes_total", "").Value(); got != 4096 {
		t.Errorf("checkpoint bytes = %d", got)
	}

	rec.RunDone(true, 5555)
	s = rec.Status()
	if s.Running || !s.Complete || s.Cardinality != 5555 {
		t.Errorf("after RunDone: %+v", s)
	}
	if got := rec.Gauge("graftmatch_run_complete", "").Value(); got != 1 {
		t.Errorf("complete gauge = %d", got)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	rec := New(Config{TraceCapacity: 16})
	rec.RunStart("PR")
	rec.Counter("graftmatch_test_total", "a test counter").Add(9)
	rec.Span("core", "phase", time.Now(), time.Millisecond, 1)
	rec.PhaseDone("PR", 1, 50)

	srv := httptest.NewServer(Handler(rec))
	defer srv.Close()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	if body, _ := get("/"); !strings.Contains(body, "/metrics") {
		t.Errorf("index missing endpoint list: %q", body)
	}

	body, ctype := get("/metrics")
	if !strings.Contains(ctype, "text/plain") {
		t.Errorf("/metrics content type %q", ctype)
	}
	for _, want := range []string{"graftmatch_test_total 9", "graftmatch_run_phase 1", "graftmatch_run_cardinality 50"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	body, _ = get("/metrics.json")
	var snap MetricsSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics.json invalid: %v", err)
	}
	if snap.Counters["graftmatch_test_total"] != 9 {
		t.Errorf("/metrics.json counters = %v", snap.Counters)
	}

	body, _ = get("/status")
	var st RunStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/status invalid: %v", err)
	}
	if st.Algorithm != "PR" || st.Phase != 1 || st.Cardinality != 50 || !st.Running {
		t.Errorf("/status = %+v", st)
	}

	body, _ = get("/trace")
	var ct chromeTrace
	if err := json.Unmarshal([]byte(body), &ct); err != nil {
		t.Fatalf("/trace invalid: %v", err)
	}
	if evs := spanEvents(ct); len(evs) != 1 || evs[0].Cat != "core" {
		t.Errorf("/trace events = %+v", ct.TraceEvents)
	}

	if body, _ = get("/trace/summary"); !strings.Contains(body, "core/phase") {
		t.Errorf("/trace/summary = %q", body)
	}

	body, _ = get("/debug/vars")
	var vars map[string]any
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars invalid: %v", err)
	}

	if body, _ = get("/debug/pprof/goroutine?debug=1"); !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/goroutine = %.80q", body)
	}

	resp, err := http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/nope status = %d", resp.StatusCode)
	}
}
