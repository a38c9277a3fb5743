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
// no per-span record: with trace events on, each span ended on the default
// tracer is one journal "span" event instead (see Span.End).
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
	traceID  uint64
	spanID   uint64
	parentID uint64
	kids     atomic.Int64
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
// ordinal derivation.
func (t *Tracer) StartSpanKeyed(ctx context.Context, name, key string) (context.Context, *Span) {
	path := name
	parent, _ := ctx.Value(spanCtxKey{}).(*Span)
	if parent != nil {
		path = parent.path + "/" + name
	}
	traceID, spanID, parentID := t.deriveIDs(parent, name, key)
	s := &Span{
		tracer:   t,
		name:     name,
		path:     path,
		start:    time.Now(),
		traceID:  traceID,
		spanID:   spanID,
		parentID: parentID,
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
// default tracer, with trace events on and the journal recording, the
// completed span is also journaled as one "span" event (times in
// microseconds, IDs in hex wire form): the only per-span record kept.
func (s *Span) End() time.Duration {
	if s == nil || s.done.Swap(true) {
		return 0
	}
	d := time.Since(s.start)
	s.tracer.record(s.path, d)
	if s.tracer == defaultTracer && spanEvents.Load() && defaultJournal.Enabled() {
		data := map[string]any{
			"name":     s.name,
			"path":     s.path,
			"trace_id": FormatID(s.traceID),
			"span_id":  FormatID(s.spanID),
			"start_us": float64(s.start.UnixNano()) / 1e3,
			"dur_us":   float64(d.Nanoseconds()) / 1e3,
		}
		if s.parentID != 0 {
			data["parent_id"] = FormatID(s.parentID)
		}
		defaultJournal.Emit(EvSpan, "", data)
	}
	return d
}

func (t *Tracer) record(path string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.agg[path]
	if a == nil {
		a = &spanAgg{min: d, max: d}
		t.agg[path] = a
	}
	a.count++
	a.total += d
	if d < a.min {
		a.min = d
	}
	if d > a.max {
		a.max = d
	}
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
