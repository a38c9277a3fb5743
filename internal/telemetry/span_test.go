package telemetry

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNestedSpanAggregation(t *testing.T) {
	tr := NewTracer()
	ctx := context.Background()
	ctx, sweep := tr.StartSpan(ctx, "dse.explore")
	for i := 0; i < 3; i++ {
		_, c := tr.StartSpan(ctx, "candidate")
		time.Sleep(time.Millisecond)
		if d := c.End(); d <= 0 {
			t.Fatalf("candidate %d: non-positive duration %v", i, d)
		}
	}
	sweep.End()

	stats := tr.Stats()
	if len(stats) != 2 {
		t.Fatalf("got %d span names, want 2: %+v", len(stats), stats)
	}
	cand, ok := tr.Stat("dse.explore/candidate")
	if !ok {
		t.Fatal("nested span not aggregated under parent/child path")
	}
	if cand.Count != 3 {
		t.Fatalf("candidate count = %d, want 3", cand.Count)
	}
	if cand.MinUS <= 0 || cand.MinUS > cand.MaxUS || cand.AvgUS < cand.MinUS || cand.AvgUS > cand.MaxUS {
		t.Fatalf("inconsistent aggregate: %+v", cand)
	}
	top, _ := tr.Stat("dse.explore")
	if top.Count != 1 {
		t.Fatalf("parent count = %d, want 1", top.Count)
	}
	// The parent span was open across all children, so its total wall time
	// bounds theirs.
	if top.TotalUS < cand.TotalUS {
		t.Fatalf("parent total %v below children total %v", top.TotalUS, cand.TotalUS)
	}
}

func TestDeeplyNestedPath(t *testing.T) {
	tr := NewTracer()
	ctx, a := tr.StartSpan(context.Background(), "a")
	ctx, b := tr.StartSpan(ctx, "b")
	_, c := tr.StartSpan(ctx, "c")
	c.End()
	b.End()
	a.End()
	if _, ok := tr.Stat("a/b/c"); !ok {
		t.Fatalf("three-level path missing: %+v", tr.Stats())
	}
}

// TestChildSpanPaths: under a parent with several child names, as a
// solve's phases, each child gets its own path, in any order and repeated;
// a child named like the parent's first child starts with no more
// allocations than its Span and its context.
func TestChildSpanPaths(t *testing.T) {
	tr := NewTracer()
	ctx, solve := tr.StartSpan(context.Background(), "solve")
	for _, name := range []string{"assemble", "setup", "newton", "setup", "assemble", "newton"} {
		_, s := tr.StartSpan(ctx, name)
		if want := "solve/" + name; s.Name() != want {
			t.Fatalf("child %q is named %q, want %q", name, s.Name(), want)
		}
		s.End()
	}
	allocs := testing.AllocsPerRun(100, func() {
		_, s := tr.StartSpanKeyed(ctx, "assemble", "k")
		s.End()
	})
	if allocs > 2 {
		t.Fatalf("a repeated child name allocates %v objects, want at most 2 (Span, context)", allocs)
	}
	solve.End()
}

func TestSpanEndIdempotentAndNilSafe(t *testing.T) {
	tr := NewTracer()
	_, s := tr.StartSpan(context.Background(), "once")
	if d := s.End(); d <= 0 {
		t.Fatalf("first End returned %v", d)
	}
	if d := s.End(); d != 0 {
		t.Fatalf("second End returned %v, want 0", d)
	}
	if st, _ := tr.Stat("once"); st.Count != 1 {
		t.Fatalf("count = %d after double End, want 1", st.Count)
	}
	var nilSpan *Span
	if d := nilSpan.End(); d != 0 {
		t.Fatalf("nil span End returned %v", d)
	}
	if nilSpan.Name() != "" {
		t.Fatal("nil span has a name")
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 500; k++ {
				_, s := tr.StartSpan(context.Background(), "hammer")
				s.End()
			}
		}()
	}
	wg.Wait()
	st, ok := tr.Stat("hammer")
	if !ok || st.Count != 8*500 {
		t.Fatalf("count = %d, want %d", st.Count, 8*500)
	}
}

func TestTraceJSONShape(t *testing.T) {
	tr := NewTracer()
	_, s := tr.StartSpan(context.Background(), "solve")
	s.End()
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []SpanStat `json:"spans"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, sb.String())
	}
	if len(doc.Spans) != 1 || doc.Spans[0].Name != "solve" || doc.Spans[0].Count != 1 {
		t.Fatalf("trace = %+v", doc.Spans)
	}
}
