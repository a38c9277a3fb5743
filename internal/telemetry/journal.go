package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
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
//	    The same contract later retired those three types, with the
//	    resource sampler that wrote them, without a bump: a journal that
//	    holds them still reads, and they pass through as unknown types.
//	3 — one solve_end per circuit solve, carrying the former solve_start
//	    keys and the solve's Diagnostics under "diag". solve_start,
//	    newton_iter and solve_end's cost/flops/warm_start/
//	    precond_refreshes/decay_rate/stagnated keys are gone. Version-1
//	    and -2 journals still read; their solve_end events have no "diag"
//	    for the solve analyses to show. Later, without a bump, solve_end,
//	    transient_settle and mc_trial events took their span's ID in place
//	    of a finishing-order number ("solve-17"), and snapshot files that
//	    ID in place of a per-journal count ("snap-1"): no reader parses an
//	    event ID or a snapshot name, so journals of either form read alike.
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
	// EvPhase records sweep-phase boundaries (start/finish) and
	// experiment summaries.
	EvPhase EventType = "phase"
	// EvSpan records one completed trace span (schema v2): name, path,
	// trace/span/parent IDs in hex wire form, start_us and dur_us.
	EvSpan EventType = "span"
)

// Event is one journal record: the envelope (seq, t_ns, type, id) every
// event shares, and Data, the encoded bytes of the event's payload struct.
// Each payload is one struct, declared next to the code that emits it:
// JournalHeader, SpanEvent and PhaseEvent in this package,
// circuit.SolveEnd and circuit.TransientSettle, dse.CandidateEval,
// accuracy.MCTrial, and the validate package's phase summaries. A reader
// decodes Data into that struct (Decode); an event of a type it does not
// know passes through with its bytes untouched. Envelope keys come in field
// order, data keys in the payload struct's field order.
type Event struct {
	// Seq is the process-wide monotonically increasing event number.
	Seq int64 `json:"seq"`
	// TNS is the event wall-clock time in Unix nanoseconds.
	TNS int64 `json:"t_ns"`
	// Type is the event type.
	Type EventType `json:"type"`
	// ID names the logical operation an event records. A solve_end,
	// transient_settle or mc_trial event takes the ID of its span in wire
	// form (its data's span_id, e.g. "3f1c0a9be2d47751"), a candidate_eval
	// its candidate ("cand-64x16@45"), a phase event its phase name.
	// Journals before that scheme numbered solves, settles and Monte-Carlo
	// runs in finishing order ("solve-17", "transient-3", "mc-1"); readers
	// treat an ID as an opaque string, so those still read.
	ID string `json:"id,omitempty"`
	// Data is the encoded payload.
	Data json.RawMessage `json:"data,omitempty"`
}

// Decode decodes the event's payload into v, a pointer to the payload
// struct of its type. An event without data leaves v as it is.
func (ev Event) Decode(v any) error {
	if len(ev.Data) == 0 {
		return nil
	}
	return json.Unmarshal(ev.Data, v)
}

// eventLine is an event as Emit encodes it: the envelope with the payload
// struct under data.
type eventLine struct {
	Event
	Data any `json:"data,omitempty"`
}

// JournalHeader is the data of the journal event that starts every
// journal file.
type JournalHeader struct {
	SchemaVersion int `json:"schema_version"`
	PID           int `json:"pid"`
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
	ring ring[json.RawMessage]
	tool string
	seed *int64
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

// EmitEvent records an event with payload data in the default journal; a
// no-op while the journal is disabled.
func EmitEvent(typ EventType, id string, data any) {
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
	j.mu.Unlock()
	j.enabled.Store(true)
	j.Emit(EvJournal, "", &JournalHeader{SchemaVersion: JournalSchemaVersion, PID: os.Getpid()})
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

// Emit records one event with payload data, a pointer to the payload
// struct of its type: encoded once into its JSONL line, which is
// appended to the ring buffer and, when a file is open, written in a single
// Write call (the crash-safety contract). A failed file write is logged
// once and recording continues ring-only.
func (j *Journal) Emit(typ EventType, id string, data any) {
	if !j.enabled.Load() {
		return
	}
	now := time.Now().UnixNano()
	j.mu.Lock()
	j.seq++
	line, err := json.Marshal(eventLine{Event{Seq: j.seq, TNS: now, Type: typ, ID: id}, data})
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

// SaveSnapshot writes payload as an indented JSON document next to the
// journal file, named <journal>.snap-<id>.<kind>.json with id the wire form
// of the ID of the span the snapshotted work ran in, the ID its journal
// event takes, atomically (temp file + rename). It returns "" with a nil
// error when the journal has no backing file — ring-only recording has
// nowhere durable to put state.
func (j *Journal) SaveSnapshot(id ID, kind string, payload any) (string, error) {
	j.mu.Lock()
	if j.f == nil || j.path == "" {
		j.mu.Unlock()
		return "", nil
	}
	path := j.path + ".snap-" + FormatID(uint64(id)) + "." + kind + ".json"
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

// Reset clears the ring buffer and event count of a closed journal; test
// helper, not part of the recording lifecycle.
func (j *Journal) Reset() {
	j.mu.Lock()
	j.ring, j.seq = ring[json.RawMessage]{size: j.ring.size}, 0
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
	torn := 0 // the number of the last malformed line
	for n := 1; sc.Scan(); n++ {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if torn != 0 {
			// A malformed line before the last is corruption, not crash
			// truncation.
			return nil, fmt.Errorf("telemetry: journal %s: malformed line %d", path, torn)
		}
		var ev Event
		if json.Unmarshal(line, &ev) != nil || !objectOrNull(ev.Data) {
			torn = n
			continue
		}
		if len(events) == 0 && ev.Type == EvJournal {
			// The version alone, as a number of any form, so that no other
			// header field, nor a version written as 4.0 or 3.5, hides a
			// newer schema.
			var h struct {
				SchemaVersion float64 `json:"schema_version"`
			}
			if ev.Decode(&h) == nil && h.SchemaVersion > JournalSchemaVersion {
				return nil, &SchemaVersionError{Path: path, Version: int(h.SchemaVersion)}
			}
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: journal %s: %w", path, err)
	}
	return events, nil
}

// objectOrNull reports whether an event's data is absent, null or a JSON
// object: every payload is a struct, so data of any other kind is a
// malformed line.
func objectOrNull(data json.RawMessage) bool {
	return len(data) == 0 || data[0] == '{' || string(data) == "null"
}

// JournalSnapshotPaths extracts the snapshot file paths referenced by a
// journal's events (data.snapshot) in event order. A recorded path that no
// longer resolves (the journal moved since recording) is retried next to
// the journal file, where SaveSnapshot put it.
func JournalSnapshotPaths(journalPath string, events []Event) []string {
	var out []string
	for _, ev := range events {
		var d struct {
			Snapshot string `json:"snapshot"`
		}
		if ev.Decode(&d) != nil || d.Snapshot == "" {
			continue
		}
		s := d.Snapshot
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
