package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer aggregates span wall times per hierarchical span name (count /
// total / min / max), which is what the paper-style speed analysis needs
// and what stays O(1) in memory across a 10,220-candidate sweep. It keeps
// no per-span record: while the journal records, each span ended on the
// default tracer is one journal "span" event instead (see Span.End).
type Tracer struct {
	mu  sync.Mutex
	agg map[string]*spanAgg

	// Causal-trace ID state (trace.go): the run's trace ID and a counter
	// discriminating sequentially started root spans.
	traceID atomic.Uint64
	rootSeq atomic.Int64
}

type spanAgg struct {
	count    int64
	total    time.Duration
	min, max time.Duration
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{agg: map[string]*spanAgg{}} }

// spanCtxKey carries the innermost open span through a context.
type spanCtxKey struct{}

// Span is one open timing region. End it exactly once; extra End calls
// are no-ops, and a nil Span is safe to End (so helpers can return nil
// spans when tracing is off).
type Span struct {
	tracer *Tracer
	name   string
	path   string
	start  time.Time
	done   atomic.Bool

	// Causal identity (trace.go): deterministic IDs derived from the run
	// seed and the span's position in the call tree; kids discriminates
	// sequentially started children.
	id   SpanIDs
	kids atomic.Int64

	// first is the first child started under the span, set once: a later
	// child of the same name takes its path instead of building one.
	first atomic.Pointer[Span]
}

// StartSpan opens a span named name under the innermost span carried by
// ctx (the full path is parent/child), returning the derived context and
// the span. Record the elapsed time with End. Spans started concurrently
// under one shared parent should use StartSpanKeyed so their IDs stay
// deterministic.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return t.StartSpanKeyed(ctx, name, "")
}

// StartSpanKeyed is StartSpan with an explicit sibling key folded into the
// span-ID derivation instead of the parent's ordinal child counter. Use it
// when siblings start concurrently (pooled workers), where counter order
// would depend on scheduling — a stable key (e.g. a candidate ID) keeps the
// span ID identical across runs and worker counts. An empty key means
// ordinal derivation. Children named like their parent's first child share
// its path string, so a sweep's candidate spans build their path once.
func (t *Tracer) StartSpanKeyed(ctx context.Context, name, key string) (context.Context, *Span) {
	path := name
	parent, _ := ctx.Value(spanCtxKey{}).(*Span)
	var first *Span
	if parent != nil {
		if first = parent.first.Load(); first != nil && first.name == name {
			path = first.path
		} else {
			path = parent.path + "/" + name
		}
	}
	s := &Span{
		tracer: t,
		name:   name,
		path:   path,
		start:  time.Now(),
		id:     t.deriveIDs(parent, name, key),
	}
	// A child that loses the race to be the first takes the winner's path
	// when named alike; no other goroutine sees s yet.
	if parent != nil && first == nil && !parent.first.CompareAndSwap(nil, s) {
		if w := parent.first.Load(); w.name == name {
			s.path = w.path
		}
	}
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// StartSpan opens a span on the process-wide default tracer.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return defaultTracer.StartSpan(ctx, name)
}

// StartSpanKeyed opens a keyed span on the process-wide default tracer.
func StartSpanKeyed(ctx context.Context, name, key string) (context.Context, *Span) {
	return defaultTracer.StartSpanKeyed(ctx, name, key)
}

// Name returns the span's full hierarchical name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.path
}

// End closes the span and folds its wall time into the tracer's per-name
// aggregate, returning the elapsed duration (zero on repeated End). On the
// default tracer, while the journal records, the completed span is also
// journaled as one "span" event (times in microseconds, IDs in hex wire
// form): the only per-span record kept.
func (s *Span) End() time.Duration {
	if s == nil || s.done.Swap(true) {
		return 0
	}
	d := time.Since(s.start)
	s.tracer.fold(s.path, spanAgg{count: 1, total: d, min: d, max: d})
	s.tracer.journalSpan(s.name, s.path, s.id, s.start, d)
	return d
}

// SpanEvent is the data of a span event: one completed span, its start
// (Unix time) and duration in microseconds. It is also the unit of the
// Chrome trace-event export and of SpanStats (see SpanEvents).
type SpanEvent struct {
	Name    string  `json:"name"`
	Path    string  `json:"path"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	SpanIDs
}

// journalSpan journals one completed span as a "span" event when t is the
// default tracer and the journal records.
func (t *Tracer) journalSpan(name, path string, ids SpanIDs, start time.Time, d time.Duration) {
	if t != defaultTracer || !JournalOn() {
		return
	}
	defaultJournal.Emit(EvSpan, "", &SpanEvent{Name: name, Path: path,
		StartUS: float64(start.UnixNano()) / 1e3, DurUS: float64(d.Nanoseconds()) / 1e3, SpanIDs: ids})
}

// add counts one span of duration d.
func (a *spanAgg) add(d time.Duration) {
	if a.count == 0 || d < a.min {
		a.min = d
	}
	if a.count == 0 || d > a.max {
		a.max = d
	}
	a.count++
	a.total += d
}

// fold adds the spans o aggregates to the aggregate of path.
func (t *Tracer) fold(path string, o spanAgg) {
	if o.count == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.agg[path]
	if a == nil {
		a = &spanAgg{min: o.min, max: o.max}
		t.agg[path] = a
	}
	a.count += o.count
	a.total += o.total
	a.min = min(a.min, o.min)
	a.max = max(a.max, o.max)
}

// SpanTally times childless spans of one name under one parent span, such
// as a sweep's per-candidate spans, at the cost of two clock reads each. It
// makes no Span and no derived context and takes no lock per span: the
// count, total, min and max add up in the tally, which one goroutine owns,
// and Flush folds them into the tracer's aggregate for the span path under
// one lock. Such a span cannot parent another span. With the journal on,
// Journal gives a span the IDs and the "span" event StartSpanKeyed and End
// would have given it. The zero SpanTally is ready for Open.
type SpanTally struct {
	tracer *Tracer
	parent *Span
	name   string
	path   string
	agg    spanAgg
}

// OpenTally points l at spans named name under the innermost span of ctx,
// flushing any spans l still holds. A tally reopened under the same parent
// and name keeps its path string, so a worker that reopens its tally for
// every run of a sweep builds the path once.
func (t *Tracer) OpenTally(ctx context.Context, name string, l *SpanTally) {
	l.Flush()
	parent := SpanFromContext(ctx)
	if l.tracer == t && l.parent == parent && l.name == name {
		return
	}
	path := name
	if parent != nil {
		path = parent.path + "/" + name
	}
	*l = SpanTally{tracer: t, parent: parent, name: name, path: path}
}

// OpenTally opens a span tally on the process-wide default tracer.
func OpenTally(ctx context.Context, name string, l *SpanTally) {
	defaultTracer.OpenTally(ctx, name, l)
}

// Start returns the start time of a span.
func (l *SpanTally) Start() time.Time { return time.Now() }

// End counts the span that started at start and returns its duration.
func (l *SpanTally) End(start time.Time) time.Duration {
	d := time.Since(start)
	l.agg.add(d)
	return d
}

// Journal returns the IDs of the span that started at start and lasted d,
// derived as StartSpanKeyed derives them under the tally's parent with the
// sibling key key, and journals the span as End would. Call it only while
// the journal records, to stamp the IDs on the events the span's work
// emits: the span itself needs neither its IDs nor key otherwise.
func (l *SpanTally) Journal(key string, start time.Time, d time.Duration) SpanIDs {
	ids := l.tracer.deriveIDs(l.parent, l.name, key)
	l.tracer.journalSpan(l.name, l.path, ids, start, d)
	return ids
}

// Flush folds the spans the tally counted into its tracer's aggregate and
// zeroes the count; a no-op when it counted none.
func (l *SpanTally) Flush() {
	if l.agg.count == 0 {
		return
	}
	l.tracer.fold(l.path, l.agg)
	l.agg = spanAgg{}
}

// Reset drops every aggregate; intended for tests.
func (t *Tracer) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.agg = map[string]*spanAgg{}
}

// SpanStat is the exported aggregate of one span name.
type SpanStat struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	TotalUS float64 `json:"total_us"`
	AvgUS   float64 `json:"avg_us"`
	MinUS   float64 `json:"min_us"`
	MaxUS   float64 `json:"max_us"`
}

// Stats returns the per-name aggregates sorted by name.
func (t *Tracer) Stats() []SpanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanStat, 0, len(t.agg))
	for name, a := range t.agg {
		us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
		out = append(out, SpanStat{
			Name:    name,
			Count:   a.count,
			TotalUS: us(a.total),
			AvgUS:   us(a.total) / float64(a.count),
			MinUS:   us(a.min),
			MaxUS:   us(a.max),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Stat returns the aggregate for one span name and whether it exists.
func (t *Tracer) Stat(name string) (SpanStat, bool) {
	for _, s := range t.Stats() {
		if s.Name == name {
			return s, true
		}
	}
	return SpanStat{}, false
}

// WriteJSON writes the trace aggregates as one JSON document:
// {"spans": [{name, count, total_us, avg_us, min_us, max_us}, ...]}.
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Spans []SpanStat `json:"spans"`
	}{Spans: t.Stats()})
}
