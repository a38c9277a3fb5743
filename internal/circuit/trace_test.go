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
	recs := telemetry.SpanEvents(events)
	byPath := map[string]telemetry.SpanEvent{}
	for _, r := range recs {
		byPath[r.Path] = r
	}
	solve, ok := byPath["candidate/circuit.solve"]
	if !ok {
		t.Fatalf("no candidate/circuit.solve span; have %v", pathsOf(recs))
	}
	if solve.Parent != parent.IDs().Span || solve.Trace != parent.IDs().Trace {
		t.Fatalf("solve span detached: %+v vs parent span %x", solve, parent.IDs().Span)
	}
	for _, phase := range []string{"assemble", "setup", "newton"} {
		p, ok := byPath["candidate/circuit.solve/"+phase]
		if !ok {
			t.Fatalf("no %s phase span; have %v", phase, pathsOf(recs))
		}
		if p.Parent != solve.Span {
			t.Fatalf("%s phase parent %x, want solve %x", phase, p.Parent, solve.Span)
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
	var end SolveEnd
	if err := ends[0].Decode(&end); err != nil {
		t.Fatal(err)
	}
	if end.Span != solve.Span {
		t.Fatalf("solve_end span_id %x, want %x", end.Span, solve.Span)
	}
	if ends[0].ID != telemetry.FormatID(uint64(solve.Span)) {
		t.Fatalf("solve_end id %q, want its span's ID %x", ends[0].ID, solve.Span)
	}
	if end.Trace != solve.Trace {
		t.Fatalf("solve_end trace_id %x", end.Trace)
	}
	if end.DurUS <= 0 {
		t.Fatalf("solve_end dur_us = %v", end.DurUS)
	}
}

// A settling run under a caller's span opens a circuit.settle span nested
// under it, and its transient_settle event carries that span's IDs and
// takes its ID.
func TestSettleTraceChain(t *testing.T) {
	path := withTestJournal(t)
	withTestTracing(t)
	c := &Crossbar{M: 4, N: 4, R: uniformR(4, 4, 150e3), WireR: 0.5, RSense: 1500, Dev: device.RRAM()}
	ctx, parent := telemetry.StartSpan(context.Background(), "latency")
	if _, err := c.SettleTimeContext(ctx, []float64{0.3, 0.2, 0.1, 0.3}, TransientOptions{NodeCap: 1e-15}); err != nil {
		t.Fatal(err)
	}
	parent.End()
	telemetry.DefaultJournal().Close()
	events, err := telemetry.ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var settle *telemetry.SpanEvent
	recs := telemetry.SpanEvents(events)
	for i := range recs {
		if recs[i].Path == "latency/circuit.settle" {
			settle = &recs[i]
		}
	}
	if settle == nil {
		t.Fatalf("no latency/circuit.settle span; have %v", pathsOf(recs))
	}
	if settle.Parent != parent.IDs().Span || settle.Trace != parent.IDs().Trace {
		t.Fatalf("settle span detached: %+v vs parent span %x", settle, parent.IDs().Span)
	}
	var settles []telemetry.Event
	for _, ev := range events {
		if ev.Type == telemetry.EvTransientSettle {
			settles = append(settles, ev)
		}
	}
	if len(settles) != 1 {
		t.Fatalf("%d transient_settle events, want 1", len(settles))
	}
	var ts TransientSettle
	if err := settles[0].Decode(&ts); err != nil || !ts.OK {
		t.Fatalf("transient_settle %s (%v)", settles[0].Data, err)
	}
	if ts.SpanIDs != settle.SpanIDs {
		t.Fatalf("transient_settle IDs %+v, want its settle span's %+v", ts.SpanIDs, settle.SpanIDs)
	}
	if settles[0].ID != telemetry.FormatID(uint64(settle.Span)) {
		t.Fatalf("transient_settle id %q, want its span's ID %x", settles[0].ID, settle.Span)
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

func pathsOf(recs []telemetry.SpanEvent) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Path
	}
	return out
}
