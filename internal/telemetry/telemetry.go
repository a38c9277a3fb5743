// Package telemetry is MNSIM-Go's zero-dependency observability layer.
// The paper's headline result is simulation *speed* ("all the 10,220
// designs are simulated within 4 seconds", Section VII.C) and its Table III
// speed-up ratios hinge on knowing exactly where solver time goes; this
// package is the measurement substrate those claims are checked against.
//
// Its facilities, all stdlib-only and safe for concurrent use:
//
//   - a process-wide metrics Registry of atomic counters, gauges and
//     fixed-bucket histograms, exportable as Prometheus text format or
//     JSON (see WritePrometheus / WriteJSON);
//
//   - lightweight hierarchical span tracing: StartSpan(ctx, "dse.candidate")
//     opens a span whose name is prefixed by any parent span carried in the
//     context, and End() folds its wall time into a per-name aggregate
//     (count / total / min / max), the run manifest's "phases";
//
//   - the flight-recorder Journal: typed JSONL events, one per solve,
//     candidate, trial, span and phase boundary, kept in one bounded ring
//     and optionally a file. Each event's payload is one struct, declared
//     next to the code that emits it (see Event), which Emit encodes and
//     every reader decodes (Event.Decode). It is the one switch for
//     per-event recording (a span is journaled exactly when it records),
//     and every per-event view — /events, /trace.json, mnsim-journal — is
//     derived from it;
//
//   - sweep phases (StartPhase), journaled at their start and finish, the
//     run manifest, and a log/slog logger on stderr (Log).
//
// Only the observers register metrics: circuit's solve observer, the DSE
// sweep and the Monte-Carlo sampler hold theirs as package-level variables
// (GetCounter / GetHistogram), so importing one of those packages makes
// its metric families appear in every export — including families with
// zero observations, which documents what *could* have been measured in a
// run. The numeric kernels (linalg, device, crossbar) and the worker pool
// import nothing from this package.
//
// The CLIs expose the layer through shared flags (AddFlags): -metrics-out
// writes the registry on exit, -run-out the run manifest, -journal the
// event journal, and -serve serves the live endpoints, net/http/pprof
// among them.
package telemetry

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// defaultRegistry and defaultTracer are the process-wide instances that the
// package-level helpers and the instrumented library packages use.
var (
	defaultRegistry = NewRegistry()
	defaultTracer   = NewTracer()
)

// Default returns the process-wide metrics registry.
func Default() *Registry { return defaultRegistry }

// DefaultTracer returns the process-wide span tracer.
func DefaultTracer() *Tracer { return defaultTracer }

// GetCounter returns (registering on first use) a counter in the default
// registry.
func GetCounter(name string) *Counter { return defaultRegistry.Counter(name) }

// GetGauge returns (registering on first use) a gauge in the default
// registry.
func GetGauge(name string) *Gauge { return defaultRegistry.Gauge(name) }

// GetHistogram returns (registering on first use) a histogram in the
// default registry. The bounds are only consulted on first registration.
func GetHistogram(name string, bounds []float64) *Histogram {
	return defaultRegistry.Histogram(name, bounds)
}

// writeFileAtomic writes via a temp file in path's directory and renames
// it into place, so an interrupted run can never leave a truncated dump —
// either the old file survives or the complete new one does.
func writeFileAtomic(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			_ = tmp.Close()           // already failing; surface the original error
			_ = os.Remove(tmp.Name()) // best-effort cleanup of the temp file
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// WriteMetricsFile dumps the default registry to path: Prometheus text
// format by default, JSON when the path ends in ".json". The write is
// atomic (temp file + rename).
func WriteMetricsFile(path string) error {
	return writeFileAtomic(path, func(w io.Writer) error {
		if hasJSONSuffix(path) {
			return defaultRegistry.WriteJSON(w)
		}
		return defaultRegistry.WritePrometheus(w)
	})
}

// HashBytes returns a short hex SHA-256 content hash, the config-hash
// fingerprint run manifests carry so mnsim-runs diff can tell whether two
// runs simulated the same design.
func HashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// HashStrings fingerprints a sequence of key=value style parts (each part
// is length-prefixed, so the hash is unambiguous under concatenation).
func HashStrings(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:%s;", len(p), p)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func hasJSONSuffix(path string) bool {
	const suf = ".json"
	return len(path) >= len(suf) && path[len(path)-len(suf):] == suf
}

// validateName rejects metric names that cannot survive a Prometheus
// exposition round-trip. Names must start with a letter or underscore and
// contain only [a-zA-Z0-9_:].
func validateName(name string) error {
	if name == "" {
		return fmt.Errorf("telemetry: empty metric name")
	}
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return fmt.Errorf("telemetry: invalid metric name %q (char %q at %d)", name, r, i)
		}
	}
	return nil
}
