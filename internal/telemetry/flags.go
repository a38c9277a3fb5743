package telemetry

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"
)

// Flags bundles the 6 observability flags every MNSIM CLI shares:
//
//	-metrics-out file   write the metrics registry on exit
//	                    (Prometheus text; JSON when the path ends in .json)
//	-run-out file       write the run manifest (run.json: identity,
//	                    per-phase span aggregates, final metrics) on exit
//	-journal file       record the flight-recorder event journal (JSONL:
//	                    solve_end/transient_settle/candidate_eval/
//	                    mc_trial/phase/span); divergence and
//	                    non-settle snapshots land next to the file, and
//	                    mnsim-journal export turns its span events into
//	                    a Perfetto timeline
//	-serve addr         serve the observability endpoints (/metrics,
//	                    /metrics.json, /trace, /trace.json, /runinfo,
//	                    /events, /healthz, /debug/pprof/*); the journal
//	                    records to its ring
//	-serve-hold d       keep the -serve server up for d after the run so
//	                    a scraper can take a final sample (a sweep ends in
//	                    milliseconds; CI's smokes scrape through this hold)
//	-log-level level    default-logger verbosity (debug|info|warn|error|off)
//
// Wire them with AddFlags before flag.Parse, call StartContext after
// parsing with the CLI's signal context (cancelling it shuts the servers
// down gracefully), and Finish once the run completes. Finish writes the
// dump files, so it must run on the error path too — the dumps of a
// failed sweep are exactly what the user wants to look at; record the
// run's outcome with Run.SetError first so the manifest carries it.
type Flags struct {
	MetricsOut string
	RunOut     string
	Journal    string
	ServeAddr  string
	ServeHold  time.Duration
	LogLevel   string

	// Run is the manifest-identity record the CLI fills in after parsing
	// (SetTool, SetSeed, SetWorkers, SetConfigHash, SetError).
	Run *RunInfo

	ctx       context.Context
	servers   []*http.Server
	serveAddr string
}

// AddFlags registers the shared observability flags on fs.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{Run: NewRunInfo()}
	fs.StringVar(&f.MetricsOut, "metrics-out", "",
		"write metrics to this file on exit (Prometheus text format, or JSON if the path ends in .json)")
	fs.StringVar(&f.RunOut, "run-out", "",
		"write the run manifest (run.json: tool, args, seed, per-phase wall time, final metrics, exit status) to this file on exit")
	fs.StringVar(&f.Journal, "journal", "",
		"record the flight-recorder event journal (JSONL) to this file; solver divergence / non-settle snapshots are written next to it")
	fs.StringVar(&f.ServeAddr, "serve", "",
		"serve the observability endpoints on this address (e.g. localhost:6060): /metrics, /metrics.json, /trace, /trace.json, /runinfo, /events, /healthz, /debug/pprof/*")
	fs.DurationVar(&f.ServeHold, "serve-hold", 0,
		"keep the -serve server up this long after the run completes, for a final scrape (Ctrl-C ends the hold early)")
	fs.StringVar(&f.LogLevel, "log-level", "",
		"structured-log verbosity: debug, info, warn (default), error, off")
	return f
}

// StartContext applies the log level, opens the journal, and brings up
// the observability server. Listens happen synchronously so a bad -serve
// address fails the run immediately instead of dying silently in a
// goroutine. Cancelling ctx (the CLIs pass their SIGINT context) shuts the
// servers down gracefully.
func (f *Flags) StartContext(ctx context.Context) error {
	f.ctx = ctx
	if f.LogLevel != "" {
		lv, err := ParseLevel(f.LogLevel)
		if err != nil {
			return err
		}
		SetLogLevel(lv)
	}
	if f.Run != nil && len(os.Args) > 1 {
		f.Run.SetArgs(os.Args[1:])
	}
	// Flight recorder: -journal records to a file (snapshots land next to
	// it); -serve alone enables ring-only recording so /events is live.
	// A recording journal also gets one "span" event per span, from which
	// mnsim-journal export and /trace.json build the timeline; the run's
	// seed fixes their trace ID.
	if f.Run != nil {
		info := f.Run.snapshot()
		defaultJournal.SetMeta(info.Tool, info.Seed)
		if info.Seed != nil && (f.Journal != "" || f.ServeAddr != "") {
			SetTraceSeed(*info.Seed)
		}
	}
	if f.Journal != "" {
		if err := defaultJournal.Open(f.Journal); err != nil {
			return err
		}
	} else if f.ServeAddr != "" {
		defaultJournal.EnableRing()
	}
	if f.ServeAddr != "" {
		addr, err := f.listenAndServe(ctx, f.ServeAddr, NewServeMux(f.Run))
		if err != nil {
			return fmt.Errorf("telemetry: observability listen: %w", err)
		}
		f.serveAddr = addr
		Log().Info("observability serving", "addr", addr)
	}
	return nil
}

// listenAndServe binds addr, serves mux in the background, and shuts the
// server down gracefully when ctx is cancelled. Returns the resolved
// listen address (useful with ":0").
func (f *Flags) listenAndServe(ctx context.Context, addr string, mux *http.ServeMux) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	f.servers = append(f.servers, srv)
	// Serve goroutine. Termination edge: srv.Shutdown (from the waiter
	// goroutine below, on ctx cancellation, or from Flags.Close) makes
	// Serve return ErrServerClosed.
	go func() {
		// Serve returns http.ErrServerClosed on shutdown; anything else
		// means the server died mid-run, which is worth a warning but not
		// a failure.
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			Log().Warn("observability server stopped", "addr", ln.Addr(), "err", err)
		}
	}()
	// Shutdown waiter. Termination edge: the ctx.Done receive — it blocks
	// only until the run context is cancelled, then shuts the server down
	// and exits.
	go func() {
		<-ctx.Done()
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx)
	}()
	return ln.Addr().String(), nil
}

// Addr returns the resolved -serve listen address ("" when not serving);
// with "-serve localhost:0" this is where the kernel put the server.
func (f *Flags) Addr() string { return f.serveAddr }

// Finish writes the requested dump files (metrics, then the run manifest,
// which snapshots the final metrics), honours -serve-hold, and stops the
// servers. A failed dump does not stop the later ones; the first error
// encountered is returned.
func (f *Flags) Finish() error {
	var first error
	record := func(kind, path string) {
		if f.Run != nil {
			f.Run.SetArtifact(kind, path)
		}
	}
	if f.MetricsOut != "" {
		if err := WriteMetricsFile(f.MetricsOut); err != nil && first == nil {
			first = err
		} else if err == nil {
			record("metrics", f.MetricsOut)
		}
	}
	if f.Journal != "" {
		record("journal", f.Journal)
	}
	if f.RunOut != "" {
		run := f.Run
		if run == nil {
			run = NewRunInfo()
		}
		if err := WriteManifestFile(f.RunOut, run); err != nil && first == nil {
			first = err
		}
	}
	// Close the journal after the dumps: recording is over, but the ring
	// buffer survives so /events stays inspectable through -serve-hold.
	if f.Journal != "" || f.ServeAddr != "" {
		if err := defaultJournal.Close(); err != nil && first == nil {
			first = err
		}
	}
	if f.ServeHold > 0 && f.serveAddr != "" && (f.ctx == nil || f.ctx.Err() == nil) {
		Log().Info("holding observability server for final scrape",
			"addr", f.serveAddr, "hold", f.ServeHold)
		timer := time.NewTimer(f.ServeHold)
		defer timer.Stop()
		var done <-chan struct{}
		if f.ctx != nil {
			done = f.ctx.Done()
		}
		select {
		case <-timer.C:
		case <-done:
		}
	}
	for _, srv := range f.servers {
		if err := srv.Close(); err != nil && err != http.ErrServerClosed && first == nil {
			first = err
		}
	}
	f.servers = nil
	f.serveAddr = ""
	return first
}
