package telemetry

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"
)

// Flags bundles the observability flags every MNSIM CLI shares:
//
//	-metrics-out file   write the metrics registry on exit
//	                    (Prometheus text; JSON when the path ends in .json)
//	-trace-out file     write the aggregated span trace as JSON on exit
//	-trace-events file  write the causal span timeline as Chrome
//	                    trace-event JSON on exit (open in Perfetto or
//	                    chrome://tracing)
//	-run-out file       write the run manifest (run.json) on exit
//	-journal file       record the flight-recorder event journal (JSONL:
//	                    solve_end/transient_settle/candidate_eval/
//	                    mc_trial/phase); divergence and
//	                    non-settle snapshots land next to the file
//	-serve addr         serve the observability endpoints (/metrics,
//	                    /metrics.json, /trace, /progress, /runinfo,
//	                    /events, /healthz, /debug/pprof/*)
//	-serve-hold d       keep the -serve server up for d after the run so
//	                    a scraper can take a final sample
//	-progress           print a rate-limited live progress line to stderr
//	-log-level level    default-logger verbosity (debug|info|warn|error|off)
//	-resource-interval d  sample runtime/metrics (heap, GC, goroutines,
//	                    scheduler latency) every d; exports to the registry,
//	                    the journal (resource_sample events), /resources.json,
//	                    and manifest rollups
//	-mem-soft-limit sz  soft memory watermark ("64MiB", "1GB", plain bytes):
//	                    live heap at or above it journals mem_pressure and
//	                    captures a heap profile
//	-stall-timeout d    stall watchdog: no journal/progress activity for d
//	                    journals watchdog_stall and captures a goroutine
//	                    profile
//	-profile-dir dir    continuous profiling: rotating CPU profiles plus
//	                    periodic heap profiles under dir, recorded as
//	                    manifest artifacts
//	-profile-interval d profile rotation cadence (default 30s)
//
// Wire them with AddFlags before flag.Parse, call StartContext after
// parsing with the CLI's signal context (cancelling it shuts the servers
// down gracefully), and Finish once the run completes. Finish writes the
// dump files, so it must run on the error path too — the dumps of a
// failed sweep are exactly what the user wants to look at; record the
// run's outcome with Run.SetError first so the manifest carries it.
type Flags struct {
	MetricsOut  string
	TraceOut    string
	TraceEvents string
	RunOut      string
	Journal     string
	ServeAddr   string
	ServeHold   time.Duration
	Progress    bool
	LogLevel    string

	ResourceInterval time.Duration
	MemSoftLimit     string
	StallTimeout     time.Duration
	ProfileDir       string
	ProfileInterval  time.Duration

	// Run is the manifest-identity record the CLI fills in after parsing
	// (SetTool, SetSeed, SetWorkers, SetConfigHash, SetError).
	Run *RunInfo

	// ProgressOut overrides the -progress destination (default os.Stderr);
	// ProgressInterval overrides the print cadence. Both exist for tests.
	ProgressOut      io.Writer
	ProgressInterval time.Duration

	ctx       context.Context
	servers   []*http.Server
	serveAddr string
	progStop  chan struct{}
	progDone  chan struct{}
	sampling  bool
}

// AddFlags registers the shared observability flags on fs.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{Run: NewRunInfo()}
	fs.StringVar(&f.MetricsOut, "metrics-out", "",
		"write metrics to this file on exit (Prometheus text format, or JSON if the path ends in .json)")
	fs.StringVar(&f.TraceOut, "trace-out", "",
		"write the aggregated span trace as JSON to this file on exit")
	fs.StringVar(&f.TraceEvents, "trace-events", "",
		"write the causal span timeline as Chrome trace-event JSON to this file on exit (viewable in Perfetto / chrome://tracing)")
	fs.StringVar(&f.RunOut, "run-out", "",
		"write the run manifest (run.json: tool, args, seed, per-phase wall time, final metrics, exit status) to this file on exit")
	fs.StringVar(&f.Journal, "journal", "",
		"record the flight-recorder event journal (JSONL) to this file; solver divergence / non-settle snapshots are written next to it")
	fs.StringVar(&f.ServeAddr, "serve", "",
		"serve the observability endpoints on this address (e.g. localhost:6060): /metrics, /metrics.json, /trace, /progress, /runinfo, /events, /healthz, /debug/pprof/*")
	fs.DurationVar(&f.ServeHold, "serve-hold", 0,
		"keep the -serve server up this long after the run completes, for a final scrape (Ctrl-C ends the hold early)")
	fs.BoolVar(&f.Progress, "progress", false,
		"print a live, rate-limited progress line (done/total, rate, ETA) to stderr")
	fs.StringVar(&f.LogLevel, "log-level", "",
		"structured-log verbosity: debug, info, warn (default), error, off")
	fs.DurationVar(&f.ResourceInterval, "resource-interval", 0,
		"sample runtime resources (heap, GC, goroutines, scheduler latency) at this interval; 0 disables unless a watchdog or -profile-dir needs the tick")
	fs.StringVar(&f.MemSoftLimit, "mem-soft-limit", "",
		"soft memory watermark (e.g. 64MiB, 1GB): live heap at or above it journals a mem_pressure event and captures a heap profile")
	fs.DurationVar(&f.StallTimeout, "stall-timeout", 0,
		"stall watchdog: no journal/progress activity for this long journals a watchdog_stall event and captures a goroutine profile")
	fs.StringVar(&f.ProfileDir, "profile-dir", "",
		"continuous profiling: write rotating CPU profiles and periodic heap profiles under this directory, recorded as manifest artifacts")
	fs.DurationVar(&f.ProfileInterval, "profile-interval", 0,
		"continuous-profile rotation cadence (default 30s)")
	return f
}

// Start is StartContext with a background context; kept for callers that
// have no cancellation to propagate.
func (f *Flags) Start() error { return f.StartContext(context.Background()) }

// StartContext applies the log level, brings up the observability
// server, and starts the -progress printer. Listens happen
// synchronously so a bad -serve address fails the run
// immediately instead of dying silently in a goroutine. Cancelling ctx
// (the CLIs pass their SIGINT context) shuts the servers down gracefully.
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
	if f.Run != nil {
		info := f.Run.snapshot()
		defaultJournal.SetMeta(info.Tool, info.Seed)
	}
	if f.Journal != "" {
		if err := defaultJournal.Open(f.Journal); err != nil {
			return err
		}
	} else if f.ServeAddr != "" {
		defaultJournal.EnableRing()
	}
	// Causal tracing: one switch drives the span-record ring, journal
	// "span" events, and /trace.json. Any sink that can consume span
	// records turns it on; a plain run keeps it off so the neutrality
	// benchmarks measure the true disabled cost.
	if f.TraceEvents != "" || f.Journal != "" || f.ServeAddr != "" {
		if f.Run != nil {
			if info := f.Run.snapshot(); info.Seed != nil {
				SetTraceSeed(*info.Seed)
			}
		}
		EnableTraceEvents(0)
	}
	if f.ServeAddr != "" {
		addr, err := f.listenAndServe(ctx, f.ServeAddr, NewServeMux(f.Run))
		if err != nil {
			return fmt.Errorf("telemetry: observability listen: %w", err)
		}
		f.serveAddr = addr
		Log().Info("observability serving", "addr", addr)
	}
	if f.Progress {
		f.startProgressPrinter(ctx)
	}
	// Resource sampler: any of the resource flags turns it on (the
	// watchdogs and profiler ride the sampling tick); with none set it
	// never starts, so an uninstrumented run pays nothing.
	if f.ResourceInterval > 0 || f.MemSoftLimit != "" || f.StallTimeout > 0 || f.ProfileDir != "" {
		memLimit, err := ParseByteSize(f.MemSoftLimit)
		if err != nil {
			return err
		}
		cfg := ResourceConfig{
			Interval:          f.ResourceInterval,
			MemSoftLimitBytes: memLimit,
			StallTimeout:      f.StallTimeout,
			ProfileDir:        f.ProfileDir,
			ProfileInterval:   f.ProfileInterval,
			Journal:           true,
		}
		if f.Run != nil {
			cfg.Artifact = f.Run.SetArtifact
		}
		if err := defaultResources.Start(ctx, cfg); err != nil {
			return err
		}
		f.sampling = true
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

// isTerminal reports whether w is an interactive terminal (a character
// device), which selects the carriage-return rewriting progress style.
func isTerminal(w io.Writer) bool {
	file, ok := w.(*os.File)
	if !ok {
		return false
	}
	fi, err := file.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

// startProgressPrinter launches the -progress goroutine: on a TTY it
// rewrites one status line in place a few times a second; on a pipe it
// prints a plain line every couple of seconds (and only when the line
// changed), so redirected stderr stays readable.
func (f *Flags) startProgressPrinter(ctx context.Context) {
	w := f.ProgressOut
	if w == nil {
		w = os.Stderr
	}
	tty := isTerminal(w)
	interval := f.ProgressInterval
	if interval <= 0 {
		if tty {
			interval = 200 * time.Millisecond
		} else {
			interval = 2 * time.Second
		}
	}
	f.progStop = make(chan struct{})
	f.progDone = make(chan struct{})
	// Printer goroutine. Termination edges: the f.progStop and ctx.Done
	// select arms in the loop body — Close closes progStop and joins on
	// progDone, so the printer never outlives the Flags.
	go func() {
		defer close(f.progDone)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		last := ""
		printed := false
		emit := func() {
			line := FormatStatusLine(defaultProgress.Statuses())
			if line == "" || line == last {
				return
			}
			if tty {
				// \r returns to column 0, ESC[K clears the stale tail.
				fmt.Fprintf(w, "\r\x1b[K%s", line)
				printed = true
			} else {
				fmt.Fprintln(w, line)
			}
			last = line
		}
		for {
			select {
			case <-f.progStop:
				if tty && printed {
					fmt.Fprintln(w) // leave the final line visible
				}
				return
			case <-ctx.Done():
				if tty && printed {
					fmt.Fprintln(w)
				}
				return
			case <-tick.C:
				emit()
			}
		}
	}()
}

// Finish stops the progress printer, writes the requested dump files
// (metrics, trace, then the run manifest, which snapshots the final
// metrics), honours -serve-hold, and stops the servers. A failed dump
// does not stop the later ones; the first error encountered is returned.
func (f *Flags) Finish() error {
	if f.progStop != nil {
		close(f.progStop)
		<-f.progDone
		f.progStop, f.progDone = nil, nil
	}
	// Stop the sampler before any dump is written: its final flush must be
	// in the journal, and its rollup in the manifest.
	if f.sampling {
		defaultResources.Stop()
		if f.Run != nil {
			f.Run.SetResources(defaultResources.Rollup())
		}
		f.sampling = false
	}
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
	if f.TraceOut != "" {
		if err := WriteTraceFile(f.TraceOut); err != nil && first == nil {
			first = err
		} else if err == nil {
			record("trace", f.TraceOut)
		}
	}
	if f.TraceEvents != "" {
		if err := WriteTraceEventsFile(f.TraceEvents); err != nil && first == nil {
			first = err
		} else if err == nil {
			record("trace_events", f.TraceEvents)
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
