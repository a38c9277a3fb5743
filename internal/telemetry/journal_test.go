package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// newTestJournal opens a file-backed journal in a temp dir and guarantees
// it is closed and reset at test end.
func newTestJournal(t *testing.T, ringCap int) (*Journal, string) {
	t.Helper()
	j := NewJournal(ringCap)
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := j.Open(path); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j, path
}

// The JSONL schema is a contract with replay tooling: envelope keys in a
// fixed order, then the payload struct's keys in field order, IDs in their
// 16-hex-digit wire form and a root span without parent_id. A drift here
// breaks every consumer.
func TestJournalSchemaGolden(t *testing.T) {
	ev := eventLine{Event{Seq: 7, TNS: 1700000000123456789, Type: EvSpan}, &SpanEvent{
		Name: "circuit.solve", Path: "run/circuit.solve", StartUS: 1700000000123.25, DurUS: 41.5,
		SpanIDs: SpanIDs{Trace: 0xea7e81f9fcf6a99b, Span: 0x404838aa9c062bd6},
	}}
	b, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"seq":7,"t_ns":1700000000123456789,"type":"span","data":{"name":"circuit.solve","path":"run/circuit.solve","start_us":1700000000123.25,"dur_us":41.5,"trace_id":"ea7e81f9fcf6a99b","span_id":"404838aa9c062bd6"}}`
	if string(b) != want {
		t.Fatalf("journal line schema drifted:\n got %s\nwant %s", b, want)
	}
	var back Event
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	var span SpanEvent
	if err := back.Decode(&span); err != nil {
		t.Fatal(err)
	}
	if back.Seq != ev.Seq || back.Type != ev.Type || back.ID != ev.ID || span != *ev.Data.(*SpanEvent) {
		t.Fatalf("round-trip mismatch: %+v %+v", back, span)
	}
}

// Every event type constant must be a valid JSONL journal line producer.
func TestJournalEventTypes(t *testing.T) {
	j, path := newTestJournal(t, 16)
	types := []EventType{EvSolveEnd, EvTransientSettle, EvCandidateEval, EvMCTrial, EvPhase, EvSpan}
	for i, typ := range types {
		j.Emit(typ, fmt.Sprintf("id-%d", i), map[string]any{"k": i})
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Header event plus one per type.
	if len(events) != len(types)+1 {
		t.Fatalf("got %d events, want %d", len(events), len(types)+1)
	}
	if events[0].Type != EvJournal {
		t.Fatalf("first event %q, want journal header", events[0].Type)
	}
	var h JournalHeader
	if err := events[0].Decode(&h); err != nil || h.SchemaVersion != JournalSchemaVersion || h.PID != os.Getpid() {
		t.Fatalf("header %+v (%v)", h, err)
	}
	for i, typ := range types {
		ev := events[i+1]
		if ev.Type != typ {
			t.Errorf("event %d type %q, want %q", i, ev.Type, typ)
		}
		if ev.Seq != int64(i+2) {
			t.Errorf("event %d seq %d, want %d", i, ev.Seq, i+2)
		}
	}
}

// Forward compatibility within a schema version: event types this reader has
// never heard of (emitted by a newer writer) must survive a round trip
// with their type and data intact, not error or get dropped. New event
// kinds are added without a version bump; only envelope changes bump.
func TestJournalReaderToleratesUnknownEventTypes(t *testing.T) {
	j, path := newTestJournal(t, 16)
	j.Emit(EvTransientSettle, "settle-1", map[string]any{"steps": 4})
	j.Emit(EventType("quantum_flux"), "future-1", map[string]any{"flux": 0.75, "units": "Wb"})
	j.Emit(EvSolveEnd, "solve-1", map[string]any{"ok": true})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJournalFile(path)
	if err != nil {
		t.Fatalf("reader rejected unknown event type: %v", err)
	}
	if len(events) != 4 { // header + 3 emits
		t.Fatalf("got %d events, want 4", len(events))
	}
	unk := events[2]
	if unk.Type != EventType("quantum_flux") {
		t.Fatalf("unknown type mangled: %q", unk.Type)
	}
	if unk.ID != "future-1" {
		t.Fatalf("unknown event id %q", unk.ID)
	}
	if string(unk.Data) != `{"flux":0.75,"units":"Wb"}` {
		t.Fatalf("unknown event data mangled: %s", unk.Data)
	}
	// And the known events around it are untouched.
	if events[1].Type != EvTransientSettle || events[3].Type != EvSolveEnd {
		t.Fatalf("neighbors mangled: %q, %q", events[1].Type, events[3].Type)
	}
}

// Concurrent writers must interleave cleanly: run with -race, and every
// line in the file must still be complete, parseable JSON with unique seq.
func TestJournalConcurrentWriters(t *testing.T) {
	j, path := newTestJournal(t, 64)
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				j.Emit(EvMCTrial, fmt.Sprintf("w%d", w), map[string]any{"trial": i})
			}
		}(w)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != workers*perWorker+1 {
		t.Fatalf("got %d events, want %d", len(events), workers*perWorker+1)
	}
	seen := map[int64]bool{}
	for _, ev := range events {
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
	}
}

// A crash mid-write leaves a truncated final line; the reader must return
// every complete event and skip the torn tail.
func TestJournalReaderToleratesTruncatedTail(t *testing.T) {
	j, path := newTestJournal(t, 16)
	j.Emit(EvTransientSettle, "settle-1", map[string]any{"steps": 4})
	j.Emit(EvSolveEnd, "solve-1", map[string]any{"ok": true})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: chop the file mid-way through the last line.
	if err := os.WriteFile(path, b[:len(b)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 { // header + transient_settle survive
		t.Fatalf("got %d events after truncation, want 2", len(events))
	}
	if events[1].Type != EvTransientSettle {
		t.Fatalf("surviving event %q", events[1].Type)
	}
}

// Corruption in the middle of the file (not at the tail) must error, also
// when the lines after it are malformed too: only the last line may be torn.
func TestJournalReaderRejectsMidFileCorruption(t *testing.T) {
	for _, lines := range []string{`{"seq":1,"t_ns":1,"type":"journal"}
{"seq":2,"t_ns":2,"type":"solve_sta
{"seq":3,"t_ns":3,"type":"solve_end"}
`, "{\"seq\":1,\"t_ns\":1,\"type\":\"journal\"}\nnot json\nalso not json\n",
		// Every payload is an object, so data of another kind is malformed.
		`{"seq":1,"t_ns":1,"type":"journal"}
{"seq":2,"t_ns":2,"type":"phase","data":5}
{"seq":3,"t_ns":3,"type":"phase","data":"x"}
`, `{"seq":1,"t_ns":1,"type":"journal"}
{"seq":2,"t_ns":2,"type":"phase","data":[1]}
{"seq":3,"t_ns":3,"type":"phase","data":null}
`} {
		path := filepath.Join(t.TempDir(), "corrupt.jsonl")
		if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
			t.Fatal(err)
		}
		if events, err := ReadJournalFile(path); err == nil {
			t.Fatalf("mid-file corruption not detected: %d events read from\n%s", len(events), lines)
		}
	}
}

// The ring buffer bounds memory: old events drop, the drop is counted, the
// file still holds everything, and the ring serves the file's own bytes.
func TestJournalRingBounded(t *testing.T) {
	const ringCap = 4
	j, path := newTestJournal(t, ringCap)
	for i := 0; i < 10; i++ {
		j.Emit(EvPhase, "", map[string]any{"i": i, "tag": "<&>"})
	}
	out := readEvents(t, j)
	if len(out.Events) != ringCap {
		t.Fatalf("ring holds %d, want %d", len(out.Events), ringCap)
	}
	if out.Total != 11 || out.Dropped != 7 { // header + 10 emits, cap 4
		t.Fatalf("total %d dropped %d, want 11/7", out.Total, out.Dropped)
	}
	j.Close()
	events, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 11 {
		t.Fatalf("file holds %d events, want all 11", len(events))
	}
	// The ring holds the file's last lines, byte for byte once the
	// endpoint's indentation is compacted away.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	for i, ev := range out.Events {
		var c bytes.Buffer
		if err := json.Compact(&c, ev); err != nil {
			t.Fatal(err)
		}
		if want := lines[len(lines)-ringCap+i]; c.String() != want {
			t.Fatalf("ring event %d:\n got %s\nwant %s", i, c.String(), want)
		}
	}

	// Emitters wrapping the ring while /events is read: every snapshot is
	// cap complete lines in seq order, and the counts add up at the end.
	j2, _ := newTestJournal(t, ringCap)
	const workers, perWorker = 4, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	read := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				read <- nil
				return
			default:
			}
			var sb strings.Builder
			var body eventsBody
			err := j2.WriteEventsJSON(&sb)
			if err == nil {
				err = json.Unmarshal([]byte(sb.String()), &body)
			}
			if err == nil && len(body.Events) > ringCap {
				err = fmt.Errorf("snapshot holds %d events, cap %d", len(body.Events), ringCap)
			}
			if err == nil {
				_, err = lastSeq(body)
			}
			if err != nil {
				read <- err
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				j2.Emit(EvMCTrial, fmt.Sprintf("w%d", w), map[string]any{"trial": i})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	out = readEvents(t, j2)
	if want := int64(workers*perWorker + 1); out.Total != want || out.Dropped != want-ringCap {
		t.Fatalf("total %d dropped %d, want %d/%d", out.Total, out.Dropped, want, want-ringCap)
	}
	if last, err := lastSeq(out); err != nil || len(out.Events) != ringCap || last != out.Total {
		t.Fatalf("ring holds %d events up to seq %d (%v), want %d up to %d", len(out.Events), last, err, ringCap, out.Total)
	}
}

// lastSeq checks that the /events lines parse and carry consecutive seqs,
// and returns the newest one.
func lastSeq(body eventsBody) (int64, error) {
	var last int64
	for i, raw := range body.Events {
		var e Event
		if err := json.Unmarshal(raw, &e); err != nil {
			return 0, err
		}
		if i > 0 && e.Seq != last+1 {
			return 0, fmt.Errorf("seq %d after %d", e.Seq, last)
		}
		last = e.Seq
	}
	return last, nil
}

// eventsBody is the /events payload as a client decodes it.
type eventsBody struct {
	Enabled bool              `json:"enabled"`
	Total   int64             `json:"total"`
	Dropped int64             `json:"dropped"`
	Events  []json.RawMessage `json:"events"`
}

func readEvents(t *testing.T, j *Journal) eventsBody {
	t.Helper()
	var sb strings.Builder
	if err := j.WriteEventsJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var out eventsBody
	if err := json.Unmarshal([]byte(sb.String()), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// Disabled journal: Emit is a cheap no-op, SaveSnapshot declines.
func TestJournalDisabledNoOp(t *testing.T) {
	j := NewJournal(4)
	j.Emit(EvSolveEnd, "x", map[string]any{"a": 1})
	var sb strings.Builder
	if err := j.WriteEventsJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"total": 0`) {
		t.Fatalf("disabled journal recorded: %s", sb.String())
	}
	if path, err := j.SaveSnapshot(1, "divergence", map[string]int{"x": 1}); err != nil || path != "" {
		t.Fatalf("SaveSnapshot on disabled journal: path %q err %v", path, err)
	}
}

// Snapshots land next to the journal file, named by the ID of the span
// whose work they record and their kind, and carry the payload verbatim.
func TestJournalSaveSnapshot(t *testing.T) {
	j, path := newTestJournal(t, 4)
	const id = ID(0x3f1c0a9be2d47751)
	snapPath, err := j.SaveSnapshot(id, "divergence", map[string]any{"m": 2, "vin": []float64{0.25, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if want := path + ".snap-3f1c0a9be2d47751.divergence.json"; snapPath != want {
		t.Fatalf("snapshot %q, want %q", snapPath, want)
	}
	b, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back["m"].(float64) != 2 {
		t.Fatalf("payload mangled: %v", back)
	}
	// Journal-referenced snapshot discovery.
	j.Emit(EvSolveEnd, FormatID(uint64(id)), map[string]any{"ok": false, "snapshot": snapPath})
	j.Close()
	events, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	paths := JournalSnapshotPaths(path, events)
	if len(paths) != 1 || paths[0] != snapPath {
		t.Fatalf("JournalSnapshotPaths = %v, want [%s]", paths, snapPath)
	}
}

// The /events endpoint on the serve mux streams the default journal ring.
func TestServeMuxEvents(t *testing.T) {
	defaultJournal.Reset()
	defaultJournal.EnableRing()
	defer func() {
		defaultJournal.Close()
		defaultJournal.Reset()
	}()
	EmitEvent(EvCandidateEval, "cand-8x2@45", map[string]any{"outcome": "ok"})
	srv := httptest.NewServer(NewServeMux(nil))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var out struct {
		Enabled bool    `json:"enabled"`
		Events  []Event `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.Enabled || len(out.Events) != 1 || out.Events[0].Type != EvCandidateEval {
		t.Fatalf("events payload %+v", out)
	}
	if out.Events[0].ID != "cand-8x2@45" {
		t.Fatalf("event id %q", out.Events[0].ID)
	}
}
