package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestFormatParseIDRoundTrip(t *testing.T) {
	for _, id := range []uint64{0, 1, 0xdeadbeef, ^uint64(0), mix64(42)} {
		s := FormatID(id)
		if len(s) != 16 {
			t.Fatalf("FormatID(%d) = %q, want 16 hex chars", id, s)
		}
		back, err := ParseID(s)
		if err != nil {
			t.Fatal(err)
		}
		if back != id {
			t.Fatalf("round trip %d -> %q -> %d", id, s, back)
		}
	}
	if _, err := ParseID("not-hex"); err == nil {
		t.Fatal("ParseID accepted garbage")
	}
}

// Trace and span IDs must be pure functions of the seed and the span's
// position in the call tree — two identical runs produce identical IDs.
func TestSpanIDsDeterministic(t *testing.T) {
	runOnce := func() []SpanIDs {
		tr := NewTracer()
		tr.SetTraceSeed(1234)
		var out []SpanIDs
		end := func(s *Span) {
			s.End()
			out = append(out, s.IDs())
		}
		ctx, root := tr.StartSpan(context.Background(), "dse.explore")
		for i := 0; i < 3; i++ {
			cctx, cand := tr.StartSpanKeyed(ctx, "candidate", fmt.Sprintf("cand-%d", i))
			_, solve := tr.StartSpan(cctx, "circuit.solve")
			end(solve)
			end(cand)
		}
		end(root)
		return out
	}
	a, b := runOnce(), runOnce()
	if len(a) != 7 || len(b) != 7 {
		t.Fatalf("got %d / %d spans, want 7 each", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("span %d IDs differ across identical runs:\n a: %+v\n b: %+v", i, a[i], b[i])
		}
		if a[i].Trace != a[0].Trace {
			t.Fatalf("span %d trace ID %x, want run-wide %x", i, a[i].Trace, a[0].Trace)
		}
		if a[i].Span == 0 {
			t.Fatalf("span %d has zero span ID", i)
		}
	}
	// A different seed yields a different trace ID.
	tr := NewTracer()
	tr.SetTraceSeed(5678)
	if tr.currentTraceID() == a[0].Trace {
		t.Fatal("different seeds produced the same trace ID")
	}
}

// Keyed sibling spans must derive identical IDs regardless of start order —
// the property that keeps parallel sweeps' traces stable across worker
// counts and scheduling.
func TestKeyedSpanIDsOrderIndependent(t *testing.T) {
	ids := func(order []int) map[string]ID {
		tr := NewTracer()
		tr.SetTraceSeed(99)
		ctx, root := tr.StartSpan(context.Background(), "sweep")
		defer root.End()
		out := map[string]ID{}
		for _, i := range order {
			key := fmt.Sprintf("cand-%d", i)
			_, s := tr.StartSpanKeyed(ctx, "candidate", key)
			out[key] = s.IDs().Span
			s.End()
		}
		return out
	}
	fwd := ids([]int{0, 1, 2, 3})
	rev := ids([]int{3, 2, 1, 0})
	for k, v := range fwd {
		if rev[k] != v {
			t.Fatalf("span ID for %s depends on start order: %x vs %x", k, v, rev[k])
		}
	}
	seen := map[ID]bool{}
	for _, v := range fwd {
		if seen[v] {
			t.Fatal("keyed siblings collided")
		}
		seen[v] = true
	}
}

// Concurrent keyed spans under one parent: every child carries the
// parent's span ID and a distinct span ID of its own, and all of them
// report the right name through one shared path string (run with -race).
func TestConcurrentKeyedSpans(t *testing.T) {
	tr := NewTracer()
	tr.SetTraceSeed(7)
	ctx, root := tr.StartSpan(context.Background(), "sweep")
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		kids  = map[ID]ID{}      // span ID -> parent ID
		paths = map[*byte]bool{} // the distinct path strings
	)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, s := tr.StartSpanKeyed(ctx, "candidate", fmt.Sprintf("cand-%d", i))
			s.End()
			mu.Lock()
			kids[s.IDs().Span] = s.IDs().Parent
			if s.Name() != "sweep/candidate" {
				t.Errorf("candidate %d is named %q", i, s.Name())
			}
			paths[unsafe.StringData(s.Name())] = true
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	root.End()
	if len(kids) != 16 {
		t.Fatalf("got %d distinct candidate span IDs, want 16", len(kids))
	}
	if len(paths) != 1 {
		t.Fatalf("16 candidates built %d path strings, want 1", len(paths))
	}
	for id, parent := range kids {
		if parent != root.IDs().Span {
			t.Fatalf("candidate span %x parent %x, want root %x", id, parent, root.IDs().Span)
		}
	}
	if st, ok := tr.Stat("sweep/candidate"); !ok || st.Count != 16 {
		t.Fatalf("candidate aggregate %+v, want count 16", st)
	}
}

// Trace events are off exactly while the journal is closed: a span ended
// then gets no "span" event, and the aggregate still counts it.
func TestTraceEventsOffRecordsNothing(t *testing.T) {
	defaultJournal.Reset()
	defaultTracer.ResetTraceEvents()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := defaultJournal.Open(path); err != nil {
		t.Fatal(err)
	}
	defer func() {
		defaultJournal.Close()
		defaultJournal.Reset()
	}()
	if err := defaultJournal.Close(); err != nil {
		t.Fatal(err)
	}
	_, s := StartSpan(context.Background(), "quiet")
	s.End()
	events, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Type != EvJournal {
		t.Fatalf("journal holds %+v, want the header only", events)
	}
	if n := len(defaultJournal.ringLines()); n != 1 {
		t.Fatalf("journal ring holds %d events, want the header only", n)
	}
	if _, ok := defaultTracer.Stat("quiet"); !ok {
		t.Fatal("aggregate lost with the journal closed")
	}
}

// The Chrome trace-event export must be valid JSON in the documented
// shape: complete "X" events, µs timestamps relative to the earliest span,
// IDs in wire form, concurrent root chains on distinct lanes.
func TestWriteTraceEventsFormat(t *testing.T) {
	recs := []SpanEvent{
		{Name: "sweep", Path: "sweep", SpanIDs: SpanIDs{Trace: 1, Span: 10}, StartUS: 1, DurUS: 9},
		{Name: "candidate", Path: "sweep/candidate", SpanIDs: SpanIDs{Trace: 1, Span: 11, Parent: 10}, StartUS: 2, DurUS: 3},
		// A second root chain overlapping the first → its own lane.
		{Name: "other", Path: "other", SpanIDs: SpanIDs{Trace: 1, Span: 20}, StartUS: 1.5, DurUS: 4},
	}
	var sb strings.Builder
	if err := WriteTraceEventsTo(&sb, recs); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, sb.String())
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) != 3 {
		t.Fatalf("doc shape: unit %q, %d events", doc.DisplayTimeUnit, len(doc.TraceEvents))
	}
	byName := map[string]int{}
	for i, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.PID != 1 || ev.TID < 1 {
			t.Fatalf("event %d envelope: %+v", i, ev)
		}
		if _, err := ParseID(ev.Args["span_id"].(string)); err != nil {
			t.Fatalf("event %d span_id: %v", i, err)
		}
		byName[ev.Name] = i
	}
	sweep := doc.TraceEvents[byName["sweep"]]
	cand := doc.TraceEvents[byName["candidate"]]
	other := doc.TraceEvents[byName["other"]]
	if sweep.TS != 0 || cand.TS != 1 || cand.Dur != 3 {
		t.Fatalf("timestamps not µs-relative: sweep %v cand %v/%v", sweep.TS, cand.TS, cand.Dur)
	}
	if cand.TID != sweep.TID {
		t.Fatalf("child on lane %d, parent on %d", cand.TID, sweep.TID)
	}
	if other.TID == sweep.TID {
		t.Fatal("overlapping root chains share a lane")
	}
	if cand.Args["parent_id"].(string) != FormatID(10) {
		t.Fatalf("candidate parent_id %v", cand.Args["parent_id"])
	}
}

// Ending a span on the default tracer with events on and the journal
// recording must emit a "span" event that reconstructs to the same record
// (the mnsim-journal export path).
func TestSpanJournalRoundTrip(t *testing.T) {
	defaultJournal.Reset()
	defaultTracer.ResetTraceEvents()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := defaultJournal.Open(path); err != nil {
		t.Fatal(err)
	}
	defer func() {
		defaultJournal.Close()
		defaultJournal.Reset()
		defaultTracer.ResetTraceEvents()
	}()
	SetTraceSeed(42)
	ctx, parent := StartSpan(context.Background(), "run")
	_, child := StartSpanKeyed(ctx, "candidate", "cand-8x2@45")
	child.End()
	parent.End()
	if err := defaultJournal.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := SpanEvents(events)
	if len(recs) != 2 {
		t.Fatalf("got %d span records from journal, want 2", len(recs))
	}
	// Spans journal at End, so the child lands first.
	got := recs[0]
	if got.Name != "candidate" || got.Path != "run/candidate" {
		t.Fatalf("child record %+v", got)
	}
	if got.SpanIDs != child.IDs() || got.Parent != parent.IDs().Span {
		t.Fatalf("IDs did not survive the journal: %+v (want %+v under parent %x)",
			got, child.IDs(), parent.IDs().Span)
	}
	if got.DurUS < 0 || got.StartUS <= 0 {
		t.Fatalf("timing did not survive: %+v", got)
	}
}

// A reader must refuse a journal written by a newer schema with the typed
// error, so stale tooling fails loudly instead of misparsing.
func TestReadJournalRefusesNewerSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "future.jsonl")
	// The version as an integer, as a float, and beside a header field of
	// a type this build does not expect.
	for _, header := range []string{`{"schema_version":%d}`, `{"schema_version":%d.0}`, `{"schema_version":%d,"pid":"node-1:42"}`} {
		lines := fmt.Sprintf(`{"seq":1,"t_ns":1,"type":"journal","data":`+header+`}
{"seq":2,"t_ns":2,"type":"solve_end","id":"solve-1"}
`, JournalSchemaVersion+1)
		if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadJournalFile(path)
		var sv *SchemaVersionError
		if !errors.As(err, &sv) {
			t.Fatalf("header %s: got %v, want *SchemaVersionError", header, err)
		}
		if sv.Version != JournalSchemaVersion+1 {
			t.Fatalf("header %s: error version %d, want %d", header, sv.Version, JournalSchemaVersion+1)
		}
		if !strings.Contains(sv.Error(), "newer than supported") {
			t.Fatalf("error text %q", sv.Error())
		}
	}
	// Current and older versions still read, the retired solve_start and
	// newton_iter events of versions 1 and 2 included.
	for _, v := range []int{JournalSchemaVersion, 2, 1} {
		ok := fmt.Sprintf(`{"seq":1,"t_ns":1,"type":"journal","data":{"schema_version":%d}}
{"seq":2,"t_ns":2,"type":"solve_start","id":"solve-1","data":{"m":4}}
{"seq":3,"t_ns":3,"type":"newton_iter","id":"solve-1","data":{"cg_iters":9,"iter":0,"max_dv":0.01}}
{"seq":4,"t_ns":4,"type":"solve_end","id":"solve-1","data":{"flops":730483,"ok":true}}
`, v)
		if err := os.WriteFile(path, []byte(ok), 0o644); err != nil {
			t.Fatal(err)
		}
		if events, err := ReadJournalFile(path); err != nil || len(events) != 4 {
			t.Fatalf("version %d: %d events, err %v", v, len(events), err)
		}
	}
}

// EmitEventCtx stamps the enclosing trace/span IDs into event payloads —
// the join key between the event stream and the span timeline — and names
// the event by its span's ID in wire form.
func TestEmitEventCtxStampsIDs(t *testing.T) {
	defaultJournal.Reset()
	defaultTracer.ResetTraceEvents()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := defaultJournal.Open(path); err != nil {
		t.Fatal(err)
	}
	defer func() {
		defaultJournal.Close()
		defaultJournal.Reset()
		defaultTracer.ResetTraceEvents()
	}()
	SetTraceSeed(5)
	ctx, sp := StartSpan(context.Background(), "solve")
	type probe struct {
		M int `json:"m"`
		SpanIDs
	}
	EmitEventCtx(ctx, EvSolveEnd, &probe{M: 4})
	// No span in scope → trace ID only, and no event ID.
	EmitEventCtx(context.Background(), EvPhase, &probe{})
	sp.End()
	defaultJournal.Close()
	events, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 { // header + 2 + the solve span
		t.Fatalf("got %d events", len(events))
	}
	if events[3].Type != EvSpan {
		t.Fatalf("last event %+v, want the solve span", events[3])
	}
	var solve, spanless probe
	if err := events[1].Decode(&solve); err != nil || solve.SpanIDs != sp.IDs() {
		t.Fatalf("solve_end not stamped: %s (%v)", events[1].Data, err)
	}
	if wire := `"trace_id":"` + FormatID(uint64(sp.IDs().Trace)) + `","span_id":"` + FormatID(uint64(sp.IDs().Span)) + `"`; !strings.Contains(string(events[1].Data), wire) {
		t.Fatalf("solve_end IDs not in wire form %s: %s", wire, events[1].Data)
	}
	if solve.M != 4 {
		t.Fatalf("payload lost: %s", events[1].Data)
	}
	if want := FormatID(uint64(sp.IDs().Span)); events[1].ID != want {
		t.Fatalf("solve_end id %q, want its span's ID %q", events[1].ID, want)
	}
	if events[2].ID != "" {
		t.Fatalf("spanless event id %q, want none", events[2].ID)
	}
	if err := events[2].Decode(&spanless); err != nil || spanless.Trace != sp.IDs().Trace {
		t.Fatalf("spanless event missing trace ID: %s (%v)", events[2].Data, err)
	}
	if strings.Contains(string(events[2].Data), "span_id") {
		t.Fatalf("spanless event has span ID: %s", events[2].Data)
	}
}

// The /trace.json endpoint serves the Chrome trace-event document built
// from the span events held in the journal ring.
func TestServeMuxTraceJSON(t *testing.T) {
	defaultJournal.Reset()
	defaultTracer.ResetTraceEvents()
	defer func() {
		defaultJournal.Close()
		defaultJournal.Reset()
		defaultTracer.ResetTraceEvents()
	}()
	defaultJournal.EnableRing()
	SetTraceSeed(11)
	ctx, outer := StartSpan(context.Background(), "probe")
	_, inner := StartSpan(ctx, "step")
	inner.End()
	outer.End()
	// A span ended after the journal closed is not journaled, so not
	// served; the ring keeps what it holds.
	defaultJournal.Close()
	_, quiet := StartSpan(context.Background(), "quiet")
	quiet.End()
	srv := httptest.NewServer(NewServeMux(nil))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/trace.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("status %d type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	parents := map[string]any{}
	for _, ev := range doc.TraceEvents {
		parents[ev.Name] = ev.Args["parent_id"]
	}
	if len(doc.TraceEvents) != 2 || len(parents) != 2 {
		t.Fatalf("trace.json payload %+v, want the probe and step spans", doc)
	}
	if got := parents["step"]; got != FormatID(uint64(outer.IDs().Span)) {
		t.Fatalf("step parent_id %v, want %x", got, outer.IDs().Span)
	}
	if got, ok := parents["probe"]; !ok || got != nil {
		t.Fatalf("probe served as %v, want a root span", got)
	}
}
