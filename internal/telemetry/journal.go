package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The flight recorder: an append-only JSONL event journal plus a bounded
// in-memory ring of its lines. Where the metrics registry aggregates ("1 of
// 10,220 candidates failed") and the tracer aggregates wall time, the
// journal keeps the *individual* events — this solve diverged at iteration
// 50 with this residual trajectory, that candidate failed with this error —
// so a bad run can be diagnosed and replayed after the fact.
//
// Crash safety: every event is marshalled to one complete line and written
// with a single Write call on an append-only file, so a crash can lose at
// most the line in flight; ReadJournalFile tolerates a truncated final
// line. Numerical neutrality: the journal only observes — enabling it must
// never change any computed output, only record it.

// JournalSchemaVersion identifies the event layout; bump it on any
// incompatible change so replay tooling can refuse journals it does not
// understand. The version is recorded in the journal's first event
// (type "journal", data.schema_version).
//
// Version history:
//
//	1 — PR 4: initial flight-recorder layout.
//	2 — PR 8: "span" events (causal trace records) and trace/span/parent
//	    ID stamps on solve/candidate/trial events. Version-1 journals
//	    still read cleanly (the additions are new events and new data
//	    keys); readers refuse versions *newer* than they understand.
//	    PR 9 added "resource_sample"/"watchdog_stall"/"mem_pressure"
//	    WITHOUT a version bump: new event types within a supported schema
//	    version are forward-compatible by contract — readers must carry
//	    unknown event types through untouched and skip them in typed
//	    processing, never error. Bump the version only when the envelope
//	    (seq/t_ns/type/id/data) or an existing event's meaning changes.
//	3 — one solve_end per circuit solve, carrying the former solve_start
//	    keys and the solve's Diagnostics under "diag". solve_start,
//	    newton_iter and solve_end's cost/flops/warm_start/
//	    precond_refreshes/decay_rate/stagnated keys are gone. Version-1
//	    and -2 journals still read; their solve_end events have no "diag"
//	    for the solve analyses to show.
const JournalSchemaVersion = 3

// SchemaVersionError reports a journal written by a newer tool than the
// reader: its header schema_version exceeds what this build understands.
type SchemaVersionError struct {
	Path    string
	Version int
}

func (e *SchemaVersionError) Error() string {
	return fmt.Sprintf("telemetry: journal %s has schema version %d, newer than supported version %d — upgrade the reading tool",
		e.Path, e.Version, JournalSchemaVersion)
}

// EventType enumerates the typed journal events.
type EventType string

const (
	// EvJournal is the self-describing header event every journal file
	// starts with.
	EvJournal EventType = "journal"
	// EvSolveEnd is the one record of a circuit-level solve, success or
	// not (schema v3): its inputs, its outcome, its whole Diagnostics under
	// "diag" and, on divergence, the snapshot path when one was written.
	EvSolveEnd EventType = "solve_end"
	// EvTransientSettle records the outcome of one transient settling run.
	EvTransientSettle EventType = "transient_settle"
	// EvCandidateEval records the outcome of one DSE grid-point evaluation.
	EvCandidateEval EventType = "candidate_eval"
	// EvMCTrial records one Monte-Carlo accuracy trial.
	EvMCTrial EventType = "mc_trial"
	// EvPhase records progress-phase boundaries (start/finish) and
	// experiment summaries.
	EvPhase EventType = "phase"
	// EvSpan records one completed trace span (schema v2): name, path,
	// trace/span/parent IDs in hex wire form, start_us and dur_us.
	EvSpan EventType = "span"
	// EvResourceSample records one resource-sampler observation: heap,
	// allocation totals, goroutines, GC pause/CPU, scheduler latency.
	EvResourceSample EventType = "resource_sample"
	// EvWatchdogStall records a stall-watchdog firing: no journal/progress
	// activity for the configured window; carries the quiet duration and
	// the goroutine-profile capture path.
	EvWatchdogStall EventType = "watchdog_stall"
	// EvMemPressure records a soft-memory-watermark crossing: live heap at
	// or above -mem-soft-limit; carries the heap size, the limit, and the
	// heap-profile capture path.
	EvMemPressure EventType = "mem_pressure"
)

// Event is one journal record. Data keys are event-type specific; the
// envelope (seq, t_ns, type, id) is shared. JSON key order is stable
// (struct fields in order, map keys sorted by encoding/json), which the
// schema golden test relies on.
type Event struct {
	// Seq is the process-wide monotonically increasing event number.
	Seq int64 `json:"seq"`
	// TNS is the event wall-clock time in Unix nanoseconds.
	TNS int64 `json:"t_ns"`
	// Type is the event type.
	Type EventType `json:"type"`
	// ID names the logical operation an event records (e.g. solve
	// "solve-17" or candidate "cand-64x16@45").
	ID string `json:"id,omitempty"`
	// Data carries the event-type specific payload.
	Data map[string]any `json:"data,omitempty"`
}

// DefaultJournalRing is the default ring-buffer capacity: enough to hold
// the tail of a large sweep without unbounded memory.
const DefaultJournalRing = 4096

// Journal is the event recorder. All methods are safe for concurrent use.
// A Journal encodes every event once, keeps the line in its ring buffer,
// and additionally appends it to a backing file when opened with Open. The
// zero-value-disabled default instance is reached through the package-level
// helpers (EmitEvent, JournalOn); instrumented packages use those, so
// enabling the default journal is enough to capture events process-wide.
type Journal struct {
	enabled atomic.Bool

	mu   sync.Mutex
	f    *os.File
	path string
	seq  int64
	// ring holds the last events as their encoded lines, without the
	// newline: the exact bytes the file gets.
	ring  ring[json.RawMessage]
	tool  string
	seed  *int64
	snaps int
}

// NewJournal returns a disabled journal with the given ring capacity
// (<= 0 selects DefaultJournalRing).
func NewJournal(ringCap int) *Journal {
	if ringCap <= 0 {
		ringCap = DefaultJournalRing
	}
	return &Journal{ring: ring[json.RawMessage]{size: ringCap}}
}

var defaultJournal = NewJournal(DefaultJournalRing)

// DefaultJournal returns the process-wide journal instance.
func DefaultJournal() *Journal { return defaultJournal }

// JournalOn reports whether the default journal is recording. Hot paths
// (per-Newton-iteration, per-MC-trial) check it before building an event
// payload, so a disabled journal costs one atomic load.
func JournalOn() bool { return defaultJournal.Enabled() }

// EmitEvent records an event in the default journal; a no-op while the
// journal is disabled.
func EmitEvent(typ EventType, id string, data map[string]any) {
	defaultJournal.Emit(typ, id, data)
}

// Enabled reports whether the journal is recording.
func (j *Journal) Enabled() bool { return j.enabled.Load() }

// Open starts recording to path (truncating any previous file) and writes
// the self-describing header event. Snapshots (SaveSnapshot) land next to
// the file.
func (j *Journal) Open(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("telemetry: journal open: %w", err)
	}
	j.mu.Lock()
	if j.f != nil {
		_ = j.f.Close() // replacing the handle; the old file's fate is not actionable
	}
	j.f = f
	j.path = path
	j.snaps = 0
	j.mu.Unlock()
	j.enabled.Store(true)
	j.Emit(EvJournal, "", map[string]any{
		"schema_version": JournalSchemaVersion,
		"pid":            os.Getpid(),
	})
	return nil
}

// EnableRing starts ring-only recording (no backing file): events are
// served live at /events but not persisted and no snapshots are written.
// Open supersedes it.
func (j *Journal) EnableRing() { j.enabled.Store(true) }

// Close stops recording and closes the backing file, if any. The ring
// buffer is kept so /events stays inspectable during -serve-hold.
func (j *Journal) Close() error {
	j.enabled.Store(false)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	j.path = ""
	return err
}

// SetMeta records run identity (tool name, seed) stamped into snapshots.
func (j *Journal) SetMeta(tool string, seed *int64) {
	j.mu.Lock()
	j.tool = tool
	if seed != nil {
		s := *seed
		j.seed = &s
	}
	j.mu.Unlock()
}

// Meta returns the run identity previously set with SetMeta; instrumented
// packages use it to stamp provenance into the snapshots they build.
func (j *Journal) Meta() (tool string, seed *int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.tool, j.seed
}

// Emit records one event: encoded once into its JSONL line, which is
// appended to the ring buffer and, when a file is open, written in a single
// Write call (the crash-safety contract). A failed file write is logged
// once and recording continues ring-only.
func (j *Journal) Emit(typ EventType, id string, data map[string]any) {
	if !j.enabled.Load() {
		return
	}
	// Journal traffic is the stall watchdog's primary liveness signal: a
	// journaled run that stops emitting has stopped doing observable work.
	// The sampler's own events are excluded — periodic resource samples
	// would otherwise re-arm the watchdog forever.
	switch typ {
	case EvResourceSample, EvWatchdogStall, EvMemPressure:
	default:
		noteActivity()
	}
	now := time.Now().UnixNano()
	j.mu.Lock()
	j.seq++
	line, err := json.Marshal(Event{Seq: j.seq, TNS: now, Type: typ, ID: id, Data: data})
	if err == nil {
		// The newline appended below lands past the ring's slice, whose
		// length stays that of the line.
		j.ring.push(line)
	}
	f := j.f
	j.mu.Unlock()
	if err != nil {
		Log().Warn("journal event marshal failed", "type", string(typ), "err", err)
		return
	}
	if f == nil {
		return
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		Log().Warn("journal write failed, continuing ring-only", "err", err)
		j.mu.Lock()
		if j.f == f {
			_ = j.f.Close() // already degrading to ring-only after a failed write
			j.f = nil
		}
		j.mu.Unlock()
	}
}

// Path returns the backing file path ("" when ring-only).
func (j *Journal) Path() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.path
}

// SaveSnapshot writes payload as an indented JSON document next to the
// journal file, named <journal>.snap-<n>.<kind>.json, atomically (temp
// file + rename). It returns "" with a nil error when the journal has no
// backing file — ring-only recording has nowhere durable to put state.
func (j *Journal) SaveSnapshot(kind string, payload any) (string, error) {
	j.mu.Lock()
	if j.f == nil || j.path == "" {
		j.mu.Unlock()
		return "", nil
	}
	j.snaps++
	path := fmt.Sprintf("%s.snap-%d.%s.json", j.path, j.snaps, kind)
	j.mu.Unlock()
	err := writeFileAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(payload)
	})
	if err != nil {
		return "", fmt.Errorf("telemetry: snapshot write: %w", err)
	}
	return path, nil
}

// eventsJSON is the /events payload.
type eventsJSON struct {
	Enabled bool              `json:"enabled"`
	Total   int64             `json:"total"`
	Dropped int64             `json:"dropped"`
	Events  []json.RawMessage `json:"events"`
}

// WriteEventsJSON writes the ring buffer's lines (oldest first) with total
// and dropped counts — the /events endpoint body.
func (j *Journal) WriteEventsJSON(w io.Writer) error {
	j.mu.Lock()
	out := eventsJSON{
		Enabled: j.enabled.Load(),
		Total:   j.seq, // every Emit takes the next seq
		Dropped: j.ring.dropped,
		Events:  j.ring.snapshot(),
	}
	j.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ringLines copies the ring buffer's lines out, oldest first.
func (j *Journal) ringLines() []json.RawMessage {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ring.snapshot()
}

// ringEvents decodes the ring buffer's lines, oldest first — the events
// /trace.json derives its live timeline from.
func (j *Journal) ringEvents() []Event {
	lines := j.ringLines()
	events := make([]Event, 0, len(lines))
	for _, line := range lines {
		var ev Event
		if json.Unmarshal(line, &ev) == nil {
			events = append(events, ev)
		}
	}
	return events
}

// ringSamples decodes the ring buffer's resource_sample events, oldest
// first, each stamped with its envelope's time — the samples
// /resources.json serves. The data decodes straight into the typed
// sample, so cumulative byte counts keep every bit.
func (j *Journal) ringSamples() []ResourceSample {
	out := []ResourceSample{}
	for _, line := range j.ringLines() {
		var ev struct {
			TNS  int64           `json:"t_ns"`
			Type EventType       `json:"type"`
			Data json.RawMessage `json:"data"`
		}
		var smp ResourceSample
		if json.Unmarshal(line, &ev) != nil || ev.Type != EvResourceSample || json.Unmarshal(ev.Data, &smp) != nil {
			continue
		}
		smp.TNS = ev.TNS
		out = append(out, smp)
	}
	return out
}

// Reset clears the ring buffer and counters of a closed journal; test
// helper, not part of the recording lifecycle.
func (j *Journal) Reset() {
	j.mu.Lock()
	j.ring, j.seq, j.snaps = ring[json.RawMessage]{size: j.ring.size}, 0, 0
	j.tool, j.seed = "", nil
	j.mu.Unlock()
}

// ReadJournalFile parses a JSONL journal. A truncated final line — the
// signature of a crash mid-write — is skipped silently; any other malformed
// line is an error, because a valid journal contains only complete JSON
// lines.
func ReadJournalFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var events []Event
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lastComplete := true
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			lastComplete = false
			continue
		}
		if !lastComplete {
			// A malformed line in the middle of the file is corruption,
			// not crash truncation.
			return nil, fmt.Errorf("telemetry: journal %s: malformed line before seq %d", path, ev.Seq)
		}
		if len(events) == 0 && ev.Type == EvJournal {
			if v, ok := ev.Data["schema_version"].(float64); ok && int(v) > JournalSchemaVersion {
				return nil, &SchemaVersionError{Path: path, Version: int(v)}
			}
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: journal %s: %w", path, err)
	}
	return events, nil
}

// JournalSnapshotPaths extracts the snapshot file paths referenced by a
// journal's events (data.snapshot) in event order. A recorded path that no
// longer resolves (the journal moved since recording) is retried next to
// the journal file, where SaveSnapshot put it.
func JournalSnapshotPaths(journalPath string, events []Event) []string {
	var out []string
	for _, ev := range events {
		s, ok := ev.Data["snapshot"].(string)
		if !ok || s == "" {
			continue
		}
		if _, err := os.Stat(s); err != nil {
			if moved := filepath.Join(filepath.Dir(journalPath), filepath.Base(s)); moved != s {
				if _, err := os.Stat(moved); err == nil {
					s = moved
				}
			}
		}
		out = append(out, s)
	}
	return out
}
