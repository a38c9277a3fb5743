package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// ManifestSchemaVersion identifies the run.json layout; bump it on any
// incompatible change so downstream consumers (mnsim-runs, the bench
// trajectory) can refuse records they do not understand.
const ManifestSchemaVersion = 1

// RunInfo collects the identity of the current process run: which tool is
// running, with which arguments, seed, worker count, and configuration
// fingerprint. The CLIs fill it in after flag parsing; the /runinfo
// endpoint serves it live and the run manifest freezes it on exit.
type RunInfo struct {
	mu         sync.Mutex
	tool       string
	args       []string
	start      time.Time
	configHash string
	seed       *int64
	workers    int
	runErr     error
	artifacts  map[string]string
}

// NewRunInfo returns a RunInfo stamped with the current time and the
// process name (overridable with SetTool).
func NewRunInfo() *RunInfo {
	tool := ""
	if len(os.Args) > 0 {
		tool = filepath.Base(os.Args[0])
	}
	return &RunInfo{tool: tool, start: time.Now()}
}

// SetTool names the running CLI.
func (r *RunInfo) SetTool(tool string) {
	r.mu.Lock()
	r.tool = tool
	r.mu.Unlock()
}

// SetArgs records the command-line arguments.
func (r *RunInfo) SetArgs(args []string) {
	r.mu.Lock()
	r.args = append([]string(nil), args...)
	r.mu.Unlock()
}

// SetConfigHash records the configuration fingerprint (HashBytes /
// HashStrings of whatever defines the run's workload).
func (r *RunInfo) SetConfigHash(h string) {
	r.mu.Lock()
	r.configHash = h
	r.mu.Unlock()
}

// SetSeed records the run's random seed.
func (r *RunInfo) SetSeed(seed int64) {
	r.mu.Lock()
	r.seed = &seed
	r.mu.Unlock()
}

// SetWorkers records the resolved worker count.
func (r *RunInfo) SetWorkers(n int) {
	r.mu.Lock()
	r.workers = n
	r.mu.Unlock()
}

// SetArtifact records a file the run produced (kind → path: "journal",
// "trace_events", "metrics", "trace", ...), so the manifest makes a run
// directory self-describing and mnsim-runs show can list them.
func (r *RunInfo) SetArtifact(kind, path string) {
	r.mu.Lock()
	if r.artifacts == nil {
		r.artifacts = map[string]string{}
	}
	r.artifacts[kind] = path
	r.mu.Unlock()
}

// SetError records the run's terminal error (nil for success); it becomes
// the manifest's exit_status/error fields.
func (r *RunInfo) SetError(err error) {
	r.mu.Lock()
	r.runErr = err
	r.mu.Unlock()
}

// runInfoJSON is the live /runinfo payload.
type runInfoJSON struct {
	Tool           string    `json:"tool"`
	Args           []string  `json:"args"`
	PID            int       `json:"pid"`
	StartTime      time.Time `json:"start_time"`
	ElapsedSeconds float64   `json:"elapsed_seconds"`
	GoVersion      string    `json:"go_version"`
	OS             string    `json:"os"`
	Arch           string    `json:"arch"`
	Hostname       string    `json:"hostname,omitempty"`
	ConfigHash     string    `json:"config_hash,omitempty"`
	Seed           *int64    `json:"seed,omitempty"`
	Workers        int       `json:"workers,omitempty"`
}

func (r *RunInfo) snapshot() runInfoJSON {
	r.mu.Lock()
	defer r.mu.Unlock()
	host, _ := os.Hostname()
	return runInfoJSON{
		Tool:           r.tool,
		Args:           append([]string(nil), r.args...),
		PID:            os.Getpid(),
		StartTime:      r.start,
		ElapsedSeconds: time.Since(r.start).Seconds(),
		GoVersion:      runtime.Version(),
		OS:             runtime.GOOS,
		Arch:           runtime.GOARCH,
		Hostname:       host,
		ConfigHash:     r.configHash,
		Seed:           r.seed,
		Workers:        r.workers,
	}
}

// WriteJSON writes the live run info document.
func (r *RunInfo) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.snapshot())
}

// Manifest is the durable, self-describing record of one CLI run — the
// NVSim/CACTI-style machine-readable result record that downstream tools
// (mnsim-runs diff, the bench trajectory) consume. Phases carries the
// per-span wall-time aggregates, Metrics the final registry snapshot.
type Manifest struct {
	SchemaVersion int       `json:"schema_version"`
	Tool          string    `json:"tool"`
	Args          []string  `json:"args"`
	ConfigHash    string    `json:"config_hash,omitempty"`
	Seed          *int64    `json:"seed,omitempty"`
	Workers       int       `json:"workers,omitempty"`
	GoVersion     string    `json:"go_version"`
	OS            string    `json:"os"`
	Arch          string    `json:"arch"`
	Hostname      string    `json:"hostname,omitempty"`
	StartTime     time.Time `json:"start_time"`
	WallSeconds   float64   `json:"wall_seconds"`
	ExitStatus    int       `json:"exit_status"`
	Error         string    `json:"error,omitempty"`

	// Artifacts maps the run's output files by kind ("journal",
	// "trace_events", "metrics", "trace"), as requested on the command
	// line, so a run directory is self-describing.
	Artifacts map[string]string `json:"artifacts,omitempty"`

	Phases  []SpanStat      `json:"phases"`
	Metrics MetricsSnapshot `json:"metrics"`
}

// Manifest freezes the run info plus the default tracer's span aggregates
// and the default registry's metrics into a manifest.
func (r *RunInfo) Manifest() Manifest {
	info := r.snapshot()
	m := Manifest{
		SchemaVersion: ManifestSchemaVersion,
		Tool:          info.Tool,
		Args:          info.Args,
		ConfigHash:    info.ConfigHash,
		Seed:          info.Seed,
		Workers:       info.Workers,
		GoVersion:     info.GoVersion,
		OS:            info.OS,
		Arch:          info.Arch,
		Hostname:      info.Hostname,
		StartTime:     info.StartTime,
		WallSeconds:   info.ElapsedSeconds,
		Phases:        defaultTracer.Stats(),
		Metrics:       defaultRegistry.Snapshot(),
	}
	r.mu.Lock()
	if r.runErr != nil {
		m.ExitStatus = 1
		m.Error = r.runErr.Error()
	}
	if len(r.artifacts) > 0 {
		m.Artifacts = make(map[string]string, len(r.artifacts))
		for k, v := range r.artifacts {
			m.Artifacts[k] = v
		}
	}
	r.mu.Unlock()
	return m
}

// Validate checks the fields every schema-conformant manifest must carry.
func (m Manifest) Validate() error {
	switch {
	case m.SchemaVersion != ManifestSchemaVersion:
		return fmt.Errorf("telemetry: manifest schema_version %d, want %d", m.SchemaVersion, ManifestSchemaVersion)
	case m.Tool == "":
		return fmt.Errorf("telemetry: manifest missing tool")
	case m.GoVersion == "" || m.OS == "" || m.Arch == "":
		return fmt.Errorf("telemetry: manifest missing go_version/os/arch")
	case m.StartTime.IsZero():
		return fmt.Errorf("telemetry: manifest missing start_time")
	case m.WallSeconds < 0:
		return fmt.Errorf("telemetry: negative wall_seconds %g", m.WallSeconds)
	case m.Metrics.Counters == nil && m.Metrics.Gauges == nil && m.Metrics.Histograms == nil:
		return fmt.Errorf("telemetry: manifest missing metrics snapshot")
	}
	return nil
}

// WriteManifestFile writes r's manifest to path atomically (temp file +
// rename), so a crash mid-write never leaves a truncated record.
func WriteManifestFile(path string, r *RunInfo) error {
	m := r.Manifest()
	return writeFileAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	})
}

// LoadManifest reads and schema-validates a run manifest.
func LoadManifest(path string) (Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return Manifest{}, fmt.Errorf("telemetry: manifest %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return Manifest{}, fmt.Errorf("%w (in %s)", err, path)
	}
	return m, nil
}
