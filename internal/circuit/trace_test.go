package circuit

import (
	"context"
	"testing"

	"mnsim/internal/device"
	"mnsim/internal/telemetry"
)

// withTestTracing seeds the trace ID for the test and clears the tracer's
// ID state afterwards. While the journal records, each span is a journal
// "span" event and a solve opens its per-phase spans.
func withTestTracing(t *testing.T) {
	t.Helper()
	telemetry.SetTraceSeed(1)
	t.Cleanup(func() {
		telemetry.DefaultTracer().ResetTraceEvents()
	})
}

// Numerical neutrality: enabling causal tracing (phase spans + journal
// span events) must not change a single bit of the computed solution.
func TestTracingNumericallyNeutral(t *testing.T) {
	c := &Crossbar{M: 4, N: 4, R: uniformR(4, 4, 150e3), WireR: 0.5, RSense: 1500, Dev: device.RRAM()}
	vin := []float64{0.3, 0.2, 0.1, 0.3}
	plain, err := c.Solve(vin, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	withTestJournal(t)
	withTestTracing(t)
	traced, err := c.Solve(vin, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.NodeV {
		if plain.NodeV[i] != traced.NodeV[i] {
			t.Fatalf("node %d: %v traced vs %v plain", i, traced.NodeV[i], plain.NodeV[i])
		}
	}
	for n := range plain.VOut {
		if plain.VOut[n] != traced.VOut[n] {
			t.Fatalf("column %d: %v traced vs %v plain", n, traced.VOut[n], plain.VOut[n])
		}
	}
	if plain.Power != traced.Power || plain.NewtonIters != traced.NewtonIters || plain.CGIters != traced.CGIters {
		t.Fatal("solve statistics differ with tracing enabled")
	}
}

// With tracing on, a solve under a candidate-style parent span produces the
// full causal chain — parent → circuit.solve → assemble/setup/newton phase
// spans — and its one solve_end event carries the solve span's IDs and a
// dur_us.
func TestSolveTraceChain(t *testing.T) {
	path := withTestJournal(t)
	withTestTracing(t)
	c := &Crossbar{M: 4, N: 4, R: uniformR(4, 4, 150e3), WireR: 0.5, RSense: 1500, Dev: device.RRAM()}
	ctx, parent := telemetry.StartSpan(context.Background(), "candidate")
	if _, err := c.SolveContext(ctx, []float64{0.3, 0.2, 0.1, 0.3}, SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	parent.End()
	telemetry.DefaultJournal().Close()
	events, err := telemetry.ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := telemetry.SpanRecordsFromEvents(events)
	byPath := map[string]telemetry.SpanRecord{}
	for _, r := range recs {
		byPath[r.Path] = r
	}
	solve, ok := byPath["candidate/circuit.solve"]
	if !ok {
		t.Fatalf("no candidate/circuit.solve span; have %v", pathsOf(recs))
	}
	if solve.ParentID != parent.SpanID() || solve.TraceID != parent.TraceID() {
		t.Fatalf("solve span detached: %+v vs parent span %x", solve, parent.SpanID())
	}
	for _, phase := range []string{"assemble", "setup", "newton"} {
		p, ok := byPath["candidate/circuit.solve/"+phase]
		if !ok {
			t.Fatalf("no %s phase span; have %v", phase, pathsOf(recs))
		}
		if p.ParentID != solve.SpanID {
			t.Fatalf("%s phase parent %x, want solve %x", phase, p.ParentID, solve.SpanID)
		}
	}
	// Event stamps join the event stream to the span timeline.
	var ends []telemetry.Event
	for _, ev := range events {
		if ev.Type == telemetry.EvSolveEnd {
			ends = append(ends, ev)
		}
	}
	if len(ends) != 1 || len(events) != 2+len(recs) {
		t.Fatalf("%d solve_end of %d events beside %d spans, want the header, one solve_end and the spans",
			len(ends), len(events), len(recs))
	}
	ev := ends[0]
	if ev.Data["span_id"] != telemetry.FormatID(solve.SpanID) {
		t.Fatalf("solve_end span_id %v, want %s", ev.Data["span_id"], telemetry.FormatID(solve.SpanID))
	}
	if ev.Data["trace_id"] != telemetry.FormatID(solve.TraceID) {
		t.Fatalf("solve_end trace_id %v", ev.Data["trace_id"])
	}
	if d, ok := ev.Data["dur_us"].(float64); !ok || d <= 0 {
		t.Fatalf("solve_end dur_us = %v", ev.Data["dur_us"])
	}
}

// With tracing off, a solve opens exactly one span (no phase sub-spans) —
// the off path must not grow the per-solve span count.
func TestSolvePhaseSpansGated(t *testing.T) {
	tr := telemetry.DefaultTracer()
	c := &Crossbar{M: 4, N: 4, R: uniformR(4, 4, 150e3), WireR: 0.5, RSense: 1500, Dev: device.RRAM()}
	before, _ := tr.Stat("circuit.solve/newton")
	if _, err := c.Solve([]float64{0.3, 0.2, 0.1, 0.3}, SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	after, _ := tr.Stat("circuit.solve/newton")
	if after.Count != before.Count {
		t.Fatalf("phase span recorded with tracing off: %d -> %d", before.Count, after.Count)
	}
}

func pathsOf(recs []telemetry.SpanRecord) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Path
	}
	return out
}
