package obs

import (
	"encoding/json"
	"expvar"
	"net/http"
	"net/http/pprof"
)

// getOnly rejects non-GET (and non-HEAD) methods with 405. The obs-native
// endpoints are pure reads; anything else on them is a client bug worth
// surfacing. The /debug/ tree keeps stdlib semantics — pprof's symbol
// endpoint legitimately accepts POST — so it is not wrapped.
func getOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h(w, req)
	}
}

// Handler returns the operational HTTP surface for one recorder:
//
//	/               endpoint index
//	/metrics        Prometheus text exposition (with trace exemplars)
//	/metrics.json   folded registry as JSON
//	/status         live run status (phase, cardinality, checkpoint)
//	/cluster        per-rank cluster snapshot (dist runs)
//	/requests       live in-flight requests (matchd)
//	/trace          Chrome trace-event JSON (about://tracing, Perfetto)
//	/trace/summary  human-readable flame summary of the span ring
//	/debug/pprof/   stdlib pprof (profile, heap, goroutine, ...)
//	/debug/vars     stdlib expvar
//
// Every endpoint reads shared state through atomics or short mutexes, so
// scraping a live run never blocks the engines.
func Handler(rec *Recorder) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", getOnly(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		// Error deliberately dropped: a vanished scraper is not our problem.
		_, _ = w.Write([]byte(indexText))
	}))
	mux.HandleFunc("/metrics", getOnly(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = rec.Registry().WritePrometheus(w) // write error means the scraper went away
	}))
	mux.HandleFunc("/metrics.json", getOnly(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(rec.Registry().Snapshot())
	}))
	mux.HandleFunc("/status", getOnly(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(rec.Status())
	}))
	mux.HandleFunc("/cluster", getOnly(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(rec.Cluster())
	}))
	mux.HandleFunc("/requests", getOnly(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		reqs := rec.Requests()
		if reqs == nil {
			reqs = []ReqInfo{}
		}
		_ = json.NewEncoder(w).Encode(reqs)
	}))
	mux.HandleFunc("/trace", getOnly(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = rec.Tracer().WriteChromeTrace(w) // write error means the scraper went away
	}))
	mux.HandleFunc("/trace/summary", getOnly(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = rec.Tracer().WriteFlameSummary(w) // write error means the scraper went away
	}))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

const indexText = `graftmatch observability surface
  /metrics        Prometheus text exposition (with trace exemplars)
  /metrics.json   metrics registry as JSON
  /status         live run status (phase, cardinality, last checkpoint)
  /cluster        per-rank cluster snapshot (dist runs: liveness, deaths, steps, step latencies)
  /requests       live in-flight requests (matchd: id, trace, endpoint, state)
  /trace          Chrome trace-event JSON (load in Perfetto / about://tracing)
  /trace/summary  flame summary of the span ring
  /debug/pprof/   stdlib pprof
  /debug/vars     stdlib expvar
`
