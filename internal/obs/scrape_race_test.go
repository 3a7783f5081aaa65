package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentScrapeWhileRecording hammers every read endpoint from
// concurrent scrapers while writer goroutines add to one shared counter,
// observe exemplar'd values into one shared histogram, record tagged spans
// on several lanes, and churn the cluster snapshot and request table. Run
// under -race this is the gate that every reader path is synchronized with
// the recording path; afterwards the shared counter and histogram must hold
// exactly the writers' total, since each metric is one atomic cell that
// every writer adds to.
func TestConcurrentScrapeWhileRecording(t *testing.T) {
	rec := New(Config{TraceCapacity: 256})
	c := rec.Counter("graftmatch_scrape_test_total", "test")
	h := rec.Histogram("graftmatch_scrape_test_ns", "test")
	srv := httptest.NewServer(Handler(rec))
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var total atomic.Int64

	// Writers: shared metrics, spans on several lanes, cluster + request churn.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			trace := NewTraceID()
			tagged := rec.WithTrace(trace)
			start := time.Now()
			for i := 0; ; i++ {
				select {
				case <-stop:
					total.Add(int64(i))
					return
				default:
				}
				c.Add(1)
				h.ObserveEx(int64(i%5000), trace)
				tagged.Span("race", "step", start, time.Microsecond, int64(i))
				rec.Tracer().Ingest([]Span{{
					Cat: "rank", Name: "expand", Start: start.UnixNano(),
					Dur: 100, Lane: int32(w + 1), Trace: trace,
				}})
				tok := rec.ReqBegin(ReqInfo{ID: "race", Endpoint: "/match", State: "received"})
				rec.ReqState(tok, "running")
				rec.ReqEnd(tok)
				rec.SetCluster(ClusterSnapshot{Trace: TraceHex(trace), Supersteps: int64(i)})
			}
		}(w)
	}

	paths := []string{"/trace", "/trace/summary", "/metrics", "/metrics.json", "/cluster", "/requests"}
	var scrapeWG sync.WaitGroup
	for _, p := range paths {
		for k := 0; k < 2; k++ {
			scrapeWG.Add(1)
			go func(p string) {
				defer scrapeWG.Done()
				for i := 0; i < 20; i++ {
					resp, err := http.Get(srv.URL + p)
					if err != nil {
						t.Errorf("GET %s: %v", p, err)
						return
					}
					if resp.StatusCode != http.StatusOK {
						t.Errorf("GET %s: status %d", p, resp.StatusCode)
					}
					if p == "/trace" {
						var ct struct {
							TraceEvents []json.RawMessage `json:"traceEvents"`
						}
						if err := json.NewDecoder(resp.Body).Decode(&ct); err != nil {
							t.Errorf("GET /trace: invalid JSON mid-recording: %v", err)
						}
					}
					resp.Body.Close()
				}
			}(p)
		}
	}
	scrapeWG.Wait()
	close(stop)
	wg.Wait()
	if got, want := c.Value(), total.Load(); got != want {
		t.Errorf("shared counter = %d, want %d", got, want)
	}
	if got, want := rec.Registry().Snapshot().Histograms["graftmatch_scrape_test_ns"].Count, total.Load(); got != want {
		t.Errorf("shared histogram count = %d, want %d", got, want)
	}
}

// TestObsEndpointsRejectNonGET pins the 405 contract: every obs-native
// endpoint answers non-GET methods with 405 and an Allow header, so a
// misconfigured POST-based remote-write scraper fails loudly instead of
// silently reading state.
func TestObsEndpointsRejectNonGET(t *testing.T) {
	rec := New(Config{})
	srv := httptest.NewServer(Handler(rec))
	defer srv.Close()
	for _, p := range []string{"/", "/metrics", "/metrics.json", "/status", "/cluster", "/requests", "/trace", "/trace/summary"} {
		resp, err := http.Post(srv.URL+p, "text/plain", strings.NewReader("x"))
		if err != nil {
			t.Fatalf("POST %s: %v", p, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: status %d, want 405", p, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") {
			t.Errorf("POST %s: Allow header %q, want GET", p, allow)
		}
	}
}
