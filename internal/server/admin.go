package server

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"

	"blinktree/blinkmetrics"
	"blinktree/internal/obs"
)

// AdminHandler returns the admin-port HTTP handler for s:
//
//	/metrics            expvar-style JSON: the tree document plus a
//	                    "server" sub-document of wire-level counters
//	/metrics?format=prometheus
//	                    Prometheus text exposition: the blinktree_* tree
//	                    series followed by the blinktree_server_* series
//	/metrics?format=trace
//	                    the tree's structural trace as JSON Lines
//	/metrics?format=spans
//	                    sampled operation spans as Chrome trace-event JSON
//	/healthz            "ok" while the server is accepting commands,
//	                    503 once draining
//	/debug/pprof/       net/http/pprof: profile (CPU), trace, heap, goroutine, ...
//
// cmd/blinkd mounts this on a separate listener (-admin) so operational
// scraping never competes with the data port.
func AdminHandler(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("format") {
		case "prometheus", "prom":
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := blinkmetrics.WritePrometheus(w, s.tree.Snapshot()); err != nil {
				return
			}
			_ = s.Stats().WritePrometheus(w)
		case "trace":
			w.Header().Set("Content-Type", "application/x-ndjson")
			_ = obs.WriteTrace(w, s.tree.TraceEvents())
		case "spans":
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			_ = obs.WriteChromeTrace(w, s.tree.Spans())
		default:
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			doc := blinkmetrics.ExpvarDoc(s.tree.Snapshot())
			doc["server"] = s.Stats().ExpvarDoc()
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(doc)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
