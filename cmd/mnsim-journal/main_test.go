package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mnsim/internal/circuit"
	"mnsim/internal/device"
	"mnsim/internal/dse"
	"mnsim/internal/telemetry"
)

// writeTracedJournal produces a real journal the way a traced DSE run would:
// a root span, a keyed candidate span, one journaled solve under it, and the
// candidate_eval event stamped with the candidate span's IDs.
func writeTracedJournal(t *testing.T) (path, candidate string) {
	t.Helper()
	j := telemetry.DefaultJournal()
	path = filepath.Join(t.TempDir(), "journal.jsonl")
	if err := j.Open(path); err != nil {
		t.Fatal(err)
	}
	telemetry.SetTraceSeed(7)
	t.Cleanup(func() {
		j.Close()
		j.Reset()
		telemetry.DefaultTracer().ResetTraceEvents()
	})

	candidate = "cand-4x4@45"
	ctx, root := telemetry.StartSpan(context.Background(), "run")
	cctx, cs := telemetry.StartSpanKeyed(ctx, "candidate", candidate)
	dev := device.RRAM()
	r := make([][]float64, 4)
	for i := range r {
		r[i] = make([]float64, 4)
		for k := range r[i] {
			r[i][k] = 150e3
		}
	}
	c := &circuit.Crossbar{M: 4, N: 4, R: r, WireR: 0.5, RSense: 1500, Dev: dev}
	if _, err := c.SolveContext(cctx, []float64{0.3, 0.2, 0.1, 0.3}, circuit.SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	evalUS := int64(12)
	telemetry.EmitEvent(telemetry.EvCandidateEval, candidate,
		&dse.CandidateEval{SpanIDs: cs.IDs(), Outcome: "ok", EvalUS: &evalUS})
	cs.End()
	root.End()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path, candidate
}

func runCmd(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(&sb, args); err != nil {
		t.Fatalf("mnsim-journal %v: %v\noutput:\n%s", args, err, sb.String())
	}
	return sb.String()
}

func TestSummarize(t *testing.T) {
	path, _ := writeTracedJournal(t)
	out := runCmd(t, "summarize", path)
	for _, want := range []string{
		"schema v3",
		"span",                        // event-type table includes span events
		"run/candidate/circuit.solve", // span-phase aggregate path
		"Solves: 1 total, 1 ok",
		"Candidates: 1 ok",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("summarize output missing %q:\n%s", want, out)
		}
	}
}

func TestSlowest(t *testing.T) {
	path, _ := writeTracedJournal(t)
	out := runCmd(t, "slowest", "-n", "3", path)
	if !strings.Contains(out, "Slowest 1 of 1 solves") {
		t.Fatalf("slowest header wrong:\n%s", out)
	}
	// The cost-model breakdown columns must be populated (cg_loop dominates
	// any real solve, so at least one percentage column is non-dash).
	if strings.Count(out, "-") >= 5 && !strings.Contains(out, "CG%") {
		t.Fatalf("cost breakdown missing:\n%s", out)
	}
}

// TestReadsRetiredResourceEvents reads a schema-3 journal written by the
// last build that had the resource sampler: its resource_sample,
// mem_pressure and watchdog_stall events no longer have a writer, but
// ReadJournalFile carries them through with their bytes, summarize counts
// them by type, and export builds the timeline from the spans around them.
func TestReadsRetiredResourceEvents(t *testing.T) {
	const path = "testdata/v3-resource-events.jsonl"
	events, err := telemetry.ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 13 {
		t.Fatalf("read %d events, want 13", len(events))
	}
	if ev := events[8]; ev.Type != "mem_pressure" ||
		string(ev.Data) != `{"heap_live_bytes":50331648,"limit_bytes":33554432,"heap_profile":"heap-pressure-001.pprof"}` {
		t.Fatalf("retired event not carried through: %s %s", ev.Type, ev.Data)
	}
	out := runCmd(t, "summarize", path)
	for _, want := range []string{
		"13 events, schema v3",
		"mem_pressure     1",
		"resource_sample  2",
		"watchdog_stall   1",
		"Solves: 1 total, 1 ok",
		"Candidates: 1 ok",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("summarize output missing %q:\n%s", want, out)
		}
	}
	trace := filepath.Join(t.TempDir(), "trace.json")
	runCmd(t, "export", "-o", trace, path)
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("exported %d spans, want the journal's 6", len(doc.TraceEvents))
	}
}

func TestOutliersHealthyRun(t *testing.T) {
	path, _ := writeTracedJournal(t)
	out := runCmd(t, "outliers", path)
	if !strings.Contains(out, "no outliers") {
		t.Fatalf("healthy run should report no outliers:\n%s", out)
	}
}

func TestTimeline(t *testing.T) {
	path, cand := writeTracedJournal(t)
	out := runCmd(t, "timeline", cand, path)
	for _, want := range []string{
		"candidate " + cand,
		"[span] circuit.solve",
		"[span] newton",
		"solve_end",
		"newton 0 cg=", // the trajectory, read from solve_end's diag
		"candidate_eval " + cand,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
}

// Journals cross a trust boundary: two spans that name each other as
// parent must not send timeline's depth walk into endless recursion.
func TestTimelineParentCycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cycle.jsonl")
	lines := `{"seq":1,"t_ns":1000,"type":"journal","data":{"schema_version":3,"pid":1}}
{"seq":2,"t_ns":3000,"type":"span","data":{"name":"a","path":"a","start_us":1,"dur_us":2,"trace_id":"0000000000000001","span_id":"000000000000000a","parent_id":"000000000000000b"}}
{"seq":3,"t_ns":3000,"type":"span","data":{"name":"b","path":"b","start_us":1,"dur_us":2,"trace_id":"0000000000000001","span_id":"000000000000000b","parent_id":"000000000000000a"}}
{"seq":4,"t_ns":3000,"type":"candidate_eval","id":"cand-1","data":{"trace_id":"0000000000000001","span_id":"000000000000000a","parent_id":"000000000000000b","outcome":"ok"}}
`
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runCmd(t, "timeline", "cand-1", path)
	for _, want := range []string{"[span] a", "[span] b", "candidate_eval cand-1 outcome=ok"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
}

func TestTimelineUnknownCandidate(t *testing.T) {
	path, cand := writeTracedJournal(t)
	var sb strings.Builder
	err := run(&sb, []string{"timeline", "no-such-candidate", path})
	if err == nil || !strings.Contains(err.Error(), cand) {
		t.Fatalf("unknown candidate should list known ones, got %v", err)
	}
}

func TestExport(t *testing.T) {
	path, _ := writeTracedJournal(t)
	out := filepath.Join(t.TempDir(), "trace.json")
	runCmd(t, "export", "-o", out, path)
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < 3 {
		t.Fatalf("expected run/candidate/solve spans at least, got %d events", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %q has phase %q, want complete-event X", ev.Name, ev.Ph)
		}
		if ev.Args["trace_id"] == "" {
			t.Fatalf("event %q missing trace_id arg", ev.Name)
		}
	}
}

func TestRefusesNewerSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "future.jsonl")
	line := `{"seq":0,"t_ns":1,"type":"journal","id":"","data":{"schema_version":99,"tool":"mnsim-future"}}` + "\n"
	if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, sub := range [][]string{
		{"summarize", path},
		{"slowest", path},
		{"outliers", path},
		{"timeline", "x", path},
		{"export", "-o", filepath.Join(t.TempDir(), "t.json"), path},
	} {
		var sb strings.Builder
		err := run(&sb, sub)
		if err == nil {
			t.Fatalf("%v accepted a schema-99 journal", sub)
		}
		if !strings.Contains(err.Error(), "schema version 99") {
			t.Fatalf("%v error not schema-version-specific: %v", sub, err)
		}
	}
}

func TestUsage(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, nil); err == nil || !strings.Contains(err.Error(), "usage:") {
		t.Fatalf("no-args should print usage, got %v", err)
	}
	if err := run(&sb, []string{"bogus"}); err == nil || !strings.Contains(err.Error(), "usage:") {
		t.Fatalf("unknown subcommand should print usage, got %v", err)
	}
}
