package dse

import (
	"context"
	"path/filepath"
	"testing"

	"mnsim/internal/telemetry"
)

// An injected evaluation failure (Options.FailEval) must journal a
// candidate_eval event with outcome "eval_failed" while the rest of the
// sweep completes, and the surviving grid points still journal their own
// outcomes.
func TestExploreFailEvalJournaled(t *testing.T) {
	j := telemetry.DefaultJournal()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := j.Open(path); err != nil {
		t.Fatal(err)
	}
	defer func() {
		j.Close()
		j.Reset()
	}()
	cands, err := Explore(context.Background(), baseDesign(), largeLayer, smallSpace(),
		Options{ErrorLimit: 0.25, FailEval: "64:16:45"})
	if err != nil {
		t.Fatal(err)
	}
	// One of the 18 grid points was sacrificed to the injection.
	if len(cands) != 17 {
		t.Fatalf("got %d candidates, want 17", len(cands))
	}
	for _, c := range cands {
		if c.CrossbarSize == 64 && c.Parallelism == 16 && c.WireNode == 45 {
			t.Fatal("injected grid point still evaluated")
		}
	}
	j.Close()
	events, err := telemetry.ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var failed, evaluated int
	for _, ev := range events {
		if ev.Type != telemetry.EvCandidateEval {
			continue
		}
		var c CandidateEval
		if err := ev.Decode(&c); err != nil {
			t.Fatal(err)
		}
		switch c.Outcome {
		case "eval_failed":
			failed++
			if ev.ID != "cand-64x16@45" {
				t.Errorf("failure event id %q, want cand-64x16@45", ev.ID)
			}
			if c.Err == "" {
				t.Error("failure event missing err")
			}
		case "ok", "infeasible":
			evaluated++
		}
	}
	if failed != 1 {
		t.Fatalf("%d eval_failed events, want 1", failed)
	}
	if evaluated != 17 {
		t.Fatalf("%d ok/infeasible events, want 17", evaluated)
	}
}

// A malformed FailEval spec fails the sweep up front; a spec naming a grid
// point outside the space injects nothing.
func TestFailEvalSpec(t *testing.T) {
	if _, err := Explore(context.Background(), baseDesign(), largeLayer, smallSpace(),
		Options{FailEval: "banana"}); err == nil {
		t.Error("malformed FailEval accepted")
	}
	cands, err := Explore(context.Background(), baseDesign(), largeLayer, smallSpace(),
		Options{FailEval: "7:7:7"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 18 {
		t.Fatalf("out-of-space injection changed the sweep: %d candidates", len(cands))
	}
}

// TestJournaledCandidateSpans: with the journal and span events on, every
// grid point journals one "candidate" span event and one candidate_eval
// event sharing its span ID, both children of the sweep span, at any worker
// count. The IDs are pinned to those the sweep journaled when each
// candidate was a keyed child Span (trace seed 7, the sweep the first root
// span), and the candidate spans' aggregate counts every grid point.
func TestJournaledCandidateSpans(t *testing.T) {
	const (
		traceID = "33882fb5ed76a575"
		sweepID = "21621222f34ec1eb"
	)
	pinned := map[string]string{
		"cand-32x1@28":    "57c15d8d2c863140",
		"cand-64x16@45":   "24ecce28ec2978eb", // the injected failure
		"cand-128x16@45":  "808e0566f0862294",
		"cand-256x256@28": "1da892260614a7aa",
	}
	tr := telemetry.DefaultTracer()
	j := telemetry.DefaultJournal()
	defer func() {
		j.Close()
		j.Reset()
		tr.ResetTraceEvents()
	}()
	for _, workers := range []int{1, 4} {
		tr.ResetTraceEvents()
		telemetry.SetTraceSeed(7)
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := j.Open(path); err != nil {
			t.Fatal(err)
		}
		before, _ := tr.Stat("dse.explore/candidate")
		if _, err := Explore(context.Background(), baseDesign(), largeLayer, smallSpace(),
			Options{ErrorLimit: 0.25, Workers: workers, FailEval: "64:16:45"}); err != nil {
			t.Fatal(err)
		}
		j.Close()
		const points = 18
		if after, _ := tr.Stat("dse.explore/candidate"); after.Count-before.Count != points {
			t.Errorf("workers=%d: candidate span count grew by %d, want %d", workers, after.Count-before.Count, points)
		}
		events, err := telemetry.ReadJournalFile(path)
		if err != nil {
			t.Fatal(err)
		}
		spans := map[string]bool{}
		evals := map[string]string{}
		hex := telemetry.FormatID
		for _, ev := range events {
			switch ev.Type {
			case telemetry.EvSpan:
				var sp telemetry.SpanEvent
				if err := ev.Decode(&sp); err != nil {
					t.Fatal(err)
				}
				if sp.Name == "dse.explore" {
					if hex(uint64(sp.Span)) != sweepID || hex(uint64(sp.Trace)) != traceID {
						t.Errorf("workers=%d: sweep span %s", workers, ev.Data)
					}
					continue
				}
				if sp.Name != "candidate" || sp.Path != "dse.explore/candidate" ||
					hex(uint64(sp.Parent)) != sweepID || hex(uint64(sp.Trace)) != traceID {
					t.Errorf("workers=%d: span event %s", workers, ev.Data)
				}
				spans[hex(uint64(sp.Span))] = true
			case telemetry.EvCandidateEval:
				var c CandidateEval
				if err := ev.Decode(&c); err != nil || hex(uint64(c.Parent)) != sweepID || hex(uint64(c.Trace)) != traceID {
					t.Errorf("workers=%d: %s event %s (%v)", workers, ev.ID, ev.Data, err)
				}
				evals[ev.ID] = hex(uint64(c.Span))
			}
		}
		if len(spans) != points || len(evals) != points {
			t.Fatalf("workers=%d: %d distinct candidate spans and %d candidate_eval events, want %d of each",
				workers, len(spans), len(evals), points)
		}
		for id, span := range evals {
			if !spans[span] {
				t.Errorf("workers=%d: %s candidate_eval span_id %s has no span event", workers, id, span)
			}
		}
		for id, want := range pinned {
			if evals[id] != want {
				t.Errorf("workers=%d: %s span_id %s, want %s", workers, id, evals[id], want)
			}
		}
	}
}
