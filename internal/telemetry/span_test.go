package telemetry

import (
	"context"
	"encoding/json"
	"path/filepath"
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

// TestSpanTallyAggregates: a tally's spans reach the tracer on Flush, under
// the path a child Span of the same name gets, and add to that path's
// aggregate exactly: count, total, min and max of the durations End
// returned. Timing a span and reopening the tally under the same parent
// allocate nothing.
func TestSpanTallyAggregates(t *testing.T) {
	tr := NewTracer()
	ctx, sweep := tr.StartSpan(context.Background(), "dse.explore")
	_, c := tr.StartSpan(ctx, "candidate")
	spanD := c.End()
	var l SpanTally
	tr.OpenTally(ctx, "candidate", &l)
	durs := []time.Duration{spanD}
	for i := 0; i < 3; i++ {
		start := l.Start()
		time.Sleep(time.Duration(i+1) * time.Millisecond)
		durs = append(durs, l.End(start))
	}
	if st, _ := tr.Stat("dse.explore/candidate"); st.Count != 1 {
		t.Fatalf("tally reached the tracer before Flush: %+v", st)
	}
	l.Flush()
	l.Flush() // a second Flush adds nothing
	var total time.Duration
	lo, hi := durs[0], durs[0]
	for _, d := range durs {
		total += d
		lo, hi = min(lo, d), max(hi, d)
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	got, _ := tr.Stat("dse.explore/candidate")
	want := SpanStat{Name: "dse.explore/candidate", Count: 4, TotalUS: us(total),
		AvgUS: us(total) / 4, MinUS: us(lo), MaxUS: us(hi)}
	if got != want {
		t.Fatalf("aggregate %+v, want %+v", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		tr.OpenTally(ctx, "candidate", &l)
		l.End(l.Start())
	}); allocs != 0 {
		t.Fatalf("reopening a tally and timing a span allocate %v objects, want 0", allocs)
	}
	sweep.End()
	// Without a parent span the path is the bare name.
	var root SpanTally
	tr.OpenTally(context.Background(), "leaf", &root)
	root.End(root.Start())
	root.Flush()
	if st, ok := tr.Stat("leaf"); !ok || st.Count != 1 {
		t.Fatalf("root tally aggregate %+v", st)
	}
}

// TestSpanTallyJournalMatchesKeyedSpan: a tally span journals the "span"
// event a keyed child Span journals, with the same IDs, and returns them.
func TestSpanTallyJournalMatchesKeyedSpan(t *testing.T) {
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
	_, keyed := StartSpanKeyed(ctx, "candidate", "cand-8x2@45")
	keyed.End()
	var l SpanTally
	OpenTally(ctx, "candidate", &l)
	start := l.Start()
	ids := l.Journal("cand-8x2@45", start, l.End(start))
	l.Flush()
	parent.End()
	if want := keyed.ids(); ids != want {
		t.Fatalf("tally span IDs %+v, want the keyed span's %+v", ids, want)
	}
	if err := defaultJournal.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := SpanRecordsFromEvents(events)
	if len(recs) != 3 {
		t.Fatalf("got %d span records, want 3", len(recs))
	}
	k, s := recs[0], recs[1]
	k.StartNS, k.DurNS, s.StartNS, s.DurNS = 0, 0, 0, 0
	if k != s {
		t.Fatalf("tally span record %+v, keyed span record %+v", s, k)
	}
	if st, _ := DefaultTracer().Stat("run/candidate"); st.Count < 2 {
		t.Fatalf("run/candidate aggregate %+v, want both spans", st)
	}
}

// TestSpanTallyConcurrentFlush: tallies owned by concurrent goroutines fold
// into one aggregate without losing a span (run with -race).
func TestSpanTallyConcurrentFlush(t *testing.T) {
	tr := NewTracer()
	ctx, sweep := tr.StartSpan(context.Background(), "sweep")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var l SpanTally
			for run := 0; run < 10; run++ {
				tr.OpenTally(ctx, "candidate", &l)
				for k := 0; k < 50; k++ {
					l.End(l.Start())
				}
			}
			l.Flush()
		}()
	}
	wg.Wait()
	sweep.End()
	if st, _ := tr.Stat("sweep/candidate"); st.Count != 8*10*50 {
		t.Fatalf("count = %d, want %d", st.Count, 8*10*50)
	}
}
