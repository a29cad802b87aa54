package caliper

import (
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"

	"caligo/internal/obs"
	"caligo/internal/telemetry"
	"caligo/internal/trace"
)

// publishOnce guards the process-wide expvar registration (expvar.Publish
// panics on duplicate names).
var publishOnce sync.Once

// publishTelemetry exposes the telemetry registry under the
// "caligo.telemetry" expvar, making it visible on any /debug/vars
// endpoint the host process serves — not just the one ServeDebug mounts.
func publishTelemetry() {
	publishOnce.Do(func() {
		expvar.Publish("caligo.telemetry", expvar.Func(func() any {
			return telemetry.ExportMap()
		}))
	})
}

// WriteMetrics writes the telemetry registry in OpenMetrics text format —
// the /debug/metrics body — so host applications can expose the metrics on
// their own scrape endpoint without mounting the debug handler.
func WriteMetrics(w io.Writer) error { return obs.WriteMetrics(w) }

// DebugServer is a running runtime-introspection HTTP endpoint started by
// ServeDebug.
type DebugServer struct {
	ln          net.Listener
	stopSampler func()
}

// Addr returns the server's bound address (useful with ":0").
func (s *DebugServer) Addr() string { return s.ln.Addr().String() }

// Close stops the server and the runtime sampler it started.
func (s *DebugServer) Close() error {
	if s.stopSampler != nil {
		s.stopSampler()
	}
	return s.ln.Close()
}

// getOnly rejects non-GET methods with 405 — every debug endpoint is a
// read-only resource.
func getOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

// DebugHandler returns the HTTP handler ServeDebug serves:
//
//	/debug/metrics     — telemetry registry in OpenMetrics text format
//	/debug/queries     — per-query attribution table as JSON (active + recent)
//	/debug/log         — structured-log flight recorder dump as NDJSON
//	/debug/telemetry   — plain-text report of the internal telemetry registry
//	/debug/trace       — buffered trace spans as Chrome trace-event JSON
//	/debug/selfprofile — self-profiling as .cali data (see selfProfileHandler)
//	/debug/vars        — expvar JSON, including the "caligo.telemetry" var
//	/debug/pprof/      — the standard net/http/pprof profiling handlers
//
// All endpoints are GET-only (405 otherwise) and set explicit
// Content-Type headers. Exposed separately so host applications can mount
// the endpoints on their own server (and tests can drive them with
// httptest).
func DebugHandler() http.Handler {
	publishTelemetry()
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", getOnly(expvar.Handler().ServeHTTP))
	mux.HandleFunc("/debug/metrics", getOnly(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", obs.ContentType)
		obs.WriteMetrics(w)
	}))
	mux.HandleFunc("/debug/queries", getOnly(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		obs.WriteQueryStats(w)
	}))
	mux.HandleFunc("/debug/log", getOnly(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
		obs.WriteFlightRecorder(w)
	}))
	mux.HandleFunc("/debug/telemetry", getOnly(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		telemetry.WriteReport(w)
	}))
	mux.HandleFunc("/debug/trace", getOnly(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		trace.WriteTrace(w)
	}))
	mux.HandleFunc("/debug/selfprofile", getOnly(selfProfileHandler))
	mux.HandleFunc("/debug/pprof/", getOnly(pprof.Index))
	mux.HandleFunc("/debug/pprof/cmdline", getOnly(pprof.Cmdline))
	mux.HandleFunc("/debug/pprof/profile", getOnly(pprof.Profile))
	mux.HandleFunc("/debug/pprof/symbol", getOnly(pprof.Symbol))
	mux.HandleFunc("/debug/pprof/trace", getOnly(pprof.Trace))
	return mux
}

// ServeDebug starts an HTTP debug endpoint on addr serving the
// DebugHandler routes, plus the background runtime sampler feeding the
// caligo.runtime.* gauges (stopped again by Close). It does not turn
// telemetry or trace collection on; enable them with the "metrics"
// service, -stats / -trace flags, or telemetry.Enable() / SetTracing to
// see non-empty output. The endpoint uses its own mux, so it never
// conflicts with handlers the host application registers on
// http.DefaultServeMux.
func ServeDebug(addr string) (*DebugServer, error) {
	mux := DebugHandler()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("caliper: ServeDebug: %w", err)
	}
	srv := &DebugServer{ln: ln, stopSampler: obs.StartRuntimeSampler(0)}
	go func() {
		// ErrServerClosed/closed-listener errors are the normal shutdown
		// path; there is no caller to report others to.
		_ = http.Serve(ln, mux)
	}()
	return srv, nil
}
