// Package debug serves live engine diagnostics over HTTP: pprof profiles,
// expvar counters, Prometheus metrics, the in-flight query table, and the
// most recent trace events. Every parajoin CLI wires it to a -debug-addr
// flag so a running query can be profiled and watched from a browser, curl,
// or a Prometheus scraper.
package debug

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"

	"parajoin/internal/metrics"
	"parajoin/internal/trace"

	// The engine and spill packages register their process-wide counters
	// in their own package variables; the blank imports guarantee those
	// families exist on /metrics even in a binary that never runs a query.
	_ "parajoin/internal/engine"
	_ "parajoin/internal/spill"
)

// Handler returns the diagnostics mux:
//
//	/metrics        the process-wide metrics registry in Prometheus text format
//	/debug/pprof/*  net/http/pprof profiles
//	/debug/vars     expvar: the runtime's memstats and cmdline, plus
//	                "parajoin_server" (admission gate, sessions) once a
//	                server exists in the process
//	/debug/queries  in-flight queries (id, rule, stage, elapsed, progress) as JSON
//	/debug/trace    ring's current events as JSON Lines (404 when ring is nil)
func Handler(ring *trace.Ring) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/queries", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(metrics.InflightQueries())
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		if ring == nil {
			http.Error(w, "tracing is not enabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for _, e := range ring.Snapshot() {
			if enc.Encode(e) != nil {
				return
			}
		}
	})
	return mux
}

// Server is a running diagnostics HTTP server. Unlike the legacy Serve it
// owns its listener and can be shut down, so tests (and embedders) don't
// leak a port-bound goroutine per instance.
type Server struct {
	ln   net.Listener
	http *http.Server
}

// NewServer binds addr (":0" picks a free port) and serves the diagnostics
// mux in a background goroutine until Close.
func NewServer(addr string, ring *trace.Ring) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, http: &http.Server{Handler: Handler(ring)}}
	go s.http.Serve(ln)
	return s, nil
}

// Addr returns the server's bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and releases its listener. Idempotent.
func (s *Server) Close() error { return s.http.Close() }

// Serve binds addr and serves the diagnostics mux in a background goroutine,
// returning the bound address (useful with ":0"). The server lives for the
// rest of the process — callers that need a shutdown use NewServer.
func Serve(addr string, ring *trace.Ring) (string, error) {
	s, err := NewServer(addr, ring)
	if err != nil {
		return "", err
	}
	return s.Addr(), nil
}
