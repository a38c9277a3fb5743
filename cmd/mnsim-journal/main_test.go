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
	telemetry.EmitEventCtx(cctx, telemetry.EvCandidateEval, candidate,
		map[string]any{"outcome": "ok", "eval_us": 12.0})
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

// writeResourceJournal produces a journal carrying resource_sample events
// bracketing a journaled solve, plus one mem_pressure event — the shape a
// run with -resource-interval and -mem-soft-limit leaves behind.
func writeResourceJournal(t *testing.T) string {
	t.Helper()
	j := telemetry.DefaultJournal()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := j.Open(path); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		j.Close()
		j.Reset()
	})
	sample := func(heap, allocB, allocO, cycles uint64, gor int64) {
		telemetry.EmitEvent(telemetry.EvResourceSample, "", map[string]any{
			"heap_live_bytes":      heap,
			"heap_goal_bytes":      heap * 2,
			"total_alloc_bytes":    allocB,
			"total_alloc_objects":  allocO,
			"goroutines":           gor,
			"gc_cycles":            cycles,
			"gc_pause_total_ns":    int64(cycles) * 50_000,
			"gc_cpu_fraction":      0.01,
			"sched_latency_p99_us": 120.0,
		})
	}
	sample(10<<20, 100<<20, 1000, 3, 4)
	dev := device.RRAM()
	r := make([][]float64, 4)
	for i := range r {
		r[i] = make([]float64, 4)
		for k := range r[i] {
			r[i][k] = 150e3
		}
	}
	c := &circuit.Crossbar{M: 4, N: 4, R: r, WireR: 0.5, RSense: 1500, Dev: dev}
	if _, err := c.Solve([]float64{0.3, 0.2, 0.1, 0.3}, circuit.SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	sample(48<<20, 180<<20, 2500, 7, 9)
	telemetry.EmitEvent(telemetry.EvMemPressure, "", map[string]any{
		"heap_live_bytes": uint64(48 << 20),
		"limit_bytes":     uint64(32 << 20),
		"heap_profile":    "heap-pressure-1.pprof",
	})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestResources(t *testing.T) {
	path := writeResourceJournal(t)
	out := runCmd(t, "resources", "-n", "2", path)
	for _, want := range []string{
		"Resource samples",
		"Peak live heap",
		"48.0 MiB",                // peak of the two samples
		"80.0 MiB (1500 objects)", // run-scoped alloc delta
		"Mem pressure events",
		"Slowest 1 solves vs runtime state",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("resources output missing %q:\n%s", want, out)
		}
	}
	// The correlation row must attribute the in-window GC cycles (7-3=4)
	// and peak heap to the solve.
	if !strings.Contains(out, "4") {
		t.Fatalf("correlation table missing GC delta:\n%s", out)
	}
}

func TestResourcesNoSamples(t *testing.T) {
	path, _ := writeTracedJournal(t)
	var sb strings.Builder
	err := run(&sb, []string{"resources", path})
	if err == nil || !strings.Contains(err.Error(), "no resource_sample events") {
		t.Fatalf("want no-samples error, got %v", err)
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
