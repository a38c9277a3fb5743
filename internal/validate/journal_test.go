package validate

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"slices"
	"testing"

	"mnsim/internal/accuracy"
	"mnsim/internal/crossbar"
	"mnsim/internal/device"
	"mnsim/internal/tech"
	"mnsim/internal/telemetry"
)

// journalTimingKeys are the data keys that hold wall times, a process ID
// or a ratio of wall times: the only keys two journals of the same work
// may differ in, besides seq and t_ns.
var journalTimingKeys = []string{"start_us", "dur_us", "eval_us", "elapsed_ns", "pid", "max_speedup"}

// journalWork journals a small Fig. 5 grid, a small Table II and one
// Monte-Carlo run on the given number of workers, from a reset tracer, and
// returns the journal's events.
func journalWork(t *testing.T, workers int) []telemetry.Event {
	t.Helper()
	j := telemetry.DefaultJournal()
	telemetry.DefaultTracer().ResetTraceEvents()
	j.Reset()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := j.Open(path); err != nil {
		t.Fatal(err)
	}
	defer func() {
		j.Close()
		j.Reset()
		telemetry.DefaultTracer().ResetTraceEvents()
	}()
	ctx := context.Background()
	if _, err := Fig5Context(ctx, []int{8, 16}, []int{45, 22}, workers); err != nil {
		t.Fatal(err)
	}
	if _, err := TableIIContext(ctx, TableIIOptions{WeightSamples: 2, InputSamples: 6, Size: 32, Seed: 1, Workers: workers}); err != nil {
		t.Fatal(err)
	}
	p := crossbar.New(16, 16, device.RRAM(), tech.MustInterconnect(45))
	if _, err := accuracy.MonteCarloContext(ctx, p, accuracy.MCOptions{Trials: 150, Sigma: 0.1, Seed: 3, Workers: workers}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := telemetry.ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// normalizedLines returns the events as sorted JSON lines, keys sorted,
// without seq, t_ns and the journalTimingKeys of their data.
func normalizedLines(t *testing.T, events []telemetry.Event) []string {
	t.Helper()
	lines := make([]string, 0, len(events))
	for _, ev := range events {
		var data map[string]any
		if len(ev.Data) > 0 {
			dec := json.NewDecoder(bytes.NewReader(ev.Data))
			dec.UseNumber()
			if err := dec.Decode(&data); err != nil {
				t.Fatal(err)
			}
			for _, k := range journalTimingKeys {
				delete(data, k)
			}
		}
		b, err := json.Marshal(map[string]any{"type": ev.Type, "id": ev.ID, "data": data})
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(b))
	}
	slices.Sort(lines)
	return lines
}

// A parallel run journals what a serial run does: the same events with
// the same IDs and data, but for their order and timings. Every solve,
// settle and Monte-Carlo event takes the ID of its span, which derives
// from the call tree and not from the order work finishes.
func TestJournalWorkerCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("circuit-level validation is slow")
	}
	serial := journalWork(t, 1)
	kinds := map[telemetry.EventType]int{}
	for _, ev := range serial {
		switch ev.Type {
		case telemetry.EvSolveEnd, telemetry.EvTransientSettle, telemetry.EvMCTrial:
		default:
			continue
		}
		kinds[ev.Type]++
		var ids telemetry.SpanIDs
		if err := ev.Decode(&ids); err != nil {
			t.Fatal(err)
		}
		if ids.Span == 0 || ev.ID != telemetry.FormatID(uint64(ids.Span)) {
			t.Fatalf("%s id %q, want its data's span_id %x", ev.Type, ev.ID, ids.Span)
		}
	}
	// Fig. 5's 4 points and Table II's 2×2×3 + 4 JPEG solves; one settle;
	// 150 trials.
	if kinds[telemetry.EvSolveEnd] != 20 || kinds[telemetry.EvTransientSettle] != 1 || kinds[telemetry.EvMCTrial] != 150 {
		t.Fatalf("journaled %v, want 20 solve_end, 1 transient_settle and 150 mc_trial", kinds)
	}
	want := normalizedLines(t, serial)
	got := normalizedLines(t, journalWork(t, 2))
	if len(got) != len(want) {
		t.Fatalf("workers 2 journaled %d events, workers 1 %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("journals differ at sorted line %d:\n workers 1: %s\n workers 2: %s", i, want[i], got[i])
		}
	}
}

// Each Fig. 5 grid point solves under a validate.fig5.point span keyed by
// size@node, whatever worker runs it: the point span's IDs are the keyed
// derivation's, its solve span nests under it, and the solve's solve_end
// takes the solve span's ID.
func TestFig5SolveNestsUnderKeyedPoint(t *testing.T) {
	j := telemetry.DefaultJournal()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := j.Open(path); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		j.Close()
		j.Reset()
		telemetry.DefaultTracer().ResetTraceEvents()
	})
	ctx, run := telemetry.StartSpan(context.Background(), "run")
	if _, err := Fig5Context(ctx, []int{8, 16}, []int{45, 22}, 2); err != nil {
		t.Fatal(err)
	}
	run.End()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := telemetry.ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[telemetry.ID]telemetry.SpanEvent{}
	for _, s := range telemetry.SpanEvents(events) {
		byID[s.Span] = s
	}
	ends := map[telemetry.ID]string{} // solve span ID -> solve_end id
	for _, ev := range events {
		var ids telemetry.SpanIDs
		if ev.Type == telemetry.EvSolveEnd && ev.Decode(&ids) == nil {
			ends[ids.Span] = ev.ID
		}
	}
	for _, key := range []string{"8@45", "16@45", "8@22", "16@22"} {
		// A keyed span's IDs depend on its parent, name and key only.
		_, want := telemetry.StartSpanKeyed(ctx, "validate.fig5.point", key)
		point, ok := byID[want.IDs().Span]
		if !ok || point.Path != "run/validate.fig5.point" || point.Parent != run.IDs().Span {
			t.Fatalf("point %s: span %+v (found %v), want run/validate.fig5.point under run", key, point, ok)
		}
		var solve *telemetry.SpanEvent
		for _, s := range byID {
			if s.Parent == point.Span && s.Name == "circuit.solve" {
				solve = &s
			}
		}
		if solve == nil {
			t.Fatalf("point %s: no circuit.solve span under it", key)
		}
		if got := ends[solve.Span]; got != telemetry.FormatID(uint64(solve.Span)) {
			t.Fatalf("point %s: solve_end id %q, want its solve span's ID %x", key, got, solve.Span)
		}
	}
}
