package telemetry

import (
	"fmt"
	"net/http"
	"net/http/pprof"
)

// The observability server behind the -serve flag: one http.Server whose
// mux exposes the live metrics registry, span aggregates, sweep progress,
// run identity, a health probe, and net/http/pprof — everything mounted
// on a private mux, never http.DefaultServeMux, so two listeners (or a
// library user embedding the handlers) can never race over global state.

// jsonHandler wraps a WriteJSON-style dump as an HTTP handler.
func jsonHandler(write func(w http.ResponseWriter) error) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := write(w); err != nil {
			Log().Warn("observability handler write failed", "path", req.URL.Path, "err", err)
		}
	}
}

// NewServeMux builds the full observability mux:
//
//	/metrics        Prometheus text exposition (version 0.0.4)
//	/metrics.json   the same registry as JSON
//	/trace          span wall-time aggregates as JSON
//	/trace.json     the causal span timeline as Chrome trace-event JSON,
//	                built from the "span" events in the journal ring
//	                (save and open in Perfetto / chrome://tracing)
//	/progress       live sweep phases: total/done, rate, ETA
//	/events         the flight-recorder ring buffer (most recent journal
//	                events) with total/dropped counts
//	/resources.json the resource samples (heap, GC, goroutines, scheduler
//	                latency) built from the "resource_sample" events in the
//	                journal ring, plus the sampler's rollup so far
//	/runinfo        tool, args, seed, workers, Go/OS version, elapsed
//	/healthz        liveness probe ("ok")
//	/debug/pprof/*  net/http/pprof profiles
//
// run may be nil, in which case /runinfo reports 404.
func NewServeMux(run *RunInfo) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := defaultRegistry.WritePrometheus(w); err != nil {
			Log().Warn("observability handler write failed", "path", req.URL.Path, "err", err)
		}
	})
	mux.HandleFunc("/metrics.json", jsonHandler(func(w http.ResponseWriter) error {
		return defaultRegistry.WriteJSON(w)
	}))
	mux.HandleFunc("/trace", jsonHandler(func(w http.ResponseWriter) error {
		return defaultTracer.WriteJSON(w)
	}))
	mux.HandleFunc("/trace.json", jsonHandler(func(w http.ResponseWriter) error {
		return WriteTraceEventsTo(w, SpanRecordsFromEvents(defaultJournal.ringEvents()))
	}))
	mux.HandleFunc("/progress", jsonHandler(func(w http.ResponseWriter) error {
		return defaultProgress.WriteJSON(w)
	}))
	mux.HandleFunc("/events", jsonHandler(func(w http.ResponseWriter) error {
		return defaultJournal.WriteEventsJSON(w)
	}))
	mux.HandleFunc("/resources.json", jsonHandler(func(w http.ResponseWriter) error {
		return defaultResources.WriteJSON(w)
	}))
	if run != nil {
		mux.HandleFunc("/runinfo", jsonHandler(func(w http.ResponseWriter) error {
			return run.WriteJSON(w)
		}))
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mountPprof(mux)
	return mux
}

// mountPprof registers the net/http/pprof handlers explicitly instead of
// relying on the package's init-time http.DefaultServeMux registration.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
