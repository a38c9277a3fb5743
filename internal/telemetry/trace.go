package telemetry

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// Causal tracing: every run carries a trace ID, every span a span ID and a
// parent span ID, so the individual events of a sweep — candidate
// evaluations, circuit solves, Newton phases — form joinable causal chains
// instead of anonymous aggregates. The IDs are pure functions of the run
// seed and the span's position in the call tree (see deriveIDs), so two
// runs of the same workload produce identical traces regardless of worker
// count or scheduling — the same determinism contract the solver results
// obey.
//
// While the flight recorder records, each completed span is one journal
// "span" event. The Chrome trace-event JSON that Perfetto and
// chrome://tracing render as a timeline is derived from those events: live
// from the journal ring (/trace.json) or after the run from the journal
// file (mnsim-journal export).

// traceSalt decorrelates the trace-ID family from the raw seed values the
// per-trial RNG streams already consume ("mnsim-tr" as ASCII).
const traceSalt = 0x6d6e73696d2d7472

// mix64 is the splitmix64 finalizer — the same integer mixer the seeded
// per-trial RNG streams use, applied here to derive trace and span IDs.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv64 is FNV-1a over s, the string-to-ID hash of span names and keys.
func fnv64(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// FormatID renders a trace/span ID as 16 lowercase hex digits — the wire
// form used in journal events and trace-event args (a JSON number would
// round uint64 through float64 and corrupt the ID).
func FormatID(id uint64) string {
	var b [16]byte
	ID(id).put(&b)
	return string(b[:])
}

// ParseID parses the 16-hex-digit wire form back into an ID.
func ParseID(s string) (uint64, error) {
	id, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("telemetry: bad trace/span id %q: %w", s, err)
	}
	return id, nil
}

// SetTraceSeed derives the tracer's trace ID from the run seed; spans
// started afterwards carry it. Flags.StartContext calls it with the run's
// recorded seed, so a seeded CLI run gets a stable, reproducible trace ID.
func (t *Tracer) SetTraceSeed(seed int64) {
	id := mix64(uint64(seed) ^ traceSalt)
	if id == 0 {
		id = 1
	}
	t.traceID.Store(id)
}

// SetTraceSeed seeds the default tracer's trace ID.
func SetTraceSeed(seed int64) { defaultTracer.SetTraceSeed(seed) }

// currentTraceID returns the tracer's trace ID, deriving the unseeded
// default lazily so an unseeded run still has a stable, nonzero ID.
func (t *Tracer) currentTraceID() ID {
	if id := t.traceID.Load(); id != 0 {
		return ID(id)
	}
	return ID(mix64(traceSalt))
}

// deriveIDs computes a new span's trace, span and parent IDs. The
// span ID mixes the parent's span ID, the span name, and a sibling
// discriminator: an explicit key when the caller supplied one
// (StartSpanKeyed — required for spans started concurrently under a shared
// parent, e.g. per-candidate spans in pooled sweep workers, where an
// ordinal would depend on scheduling), otherwise the parent's ordinal
// child counter (deterministic for sequentially started siblings).
func (t *Tracer) deriveIDs(parent *Span, name, key string) SpanIDs {
	var ids SpanIDs
	if parent != nil {
		ids.Trace, ids.Parent = parent.id.Trace, parent.id.Span
	} else {
		ids.Trace = t.currentTraceID()
	}
	var disc uint64
	if key != "" {
		disc = fnv64(key)
	} else if parent != nil {
		disc = uint64(parent.kids.Add(1))
	} else {
		disc = uint64(t.rootSeq.Add(1))
	}
	ids.Span = ID(mix64(mix64(uint64(ids.Trace^ids.Parent)) ^ mix64(fnv64(name)^disc)))
	if ids.Span == 0 {
		ids.Span = 1
	}
	return ids
}

// EnableTraceEvents is a no-op: a span is journaled exactly when the
// journal records.
//
// Deprecated: the journal is the only recording switch. The benchmark
// module still calls this; ROADMAP item 3's benchmark change deletes it.
func EnableTraceEvents(int) {}

// DisableTraceEvents is a no-op: a span is journaled exactly when the
// journal records.
//
// Deprecated: the journal is the only recording switch. The benchmark
// module still calls this; ROADMAP item 3's benchmark change deletes it.
func DisableTraceEvents() {}

// ResetTraceEvents clears the tracer's ID state (trace ID and root-span
// counter); test and benchmark helper.
func (t *Tracer) ResetTraceEvents() {
	t.rootSeq.Store(0)
	t.traceID.Store(0)
}

// SpanFromContext returns the innermost span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// IDs returns the span's causal identity; nil-safe (zero for a nil span).
func (s *Span) IDs() SpanIDs {
	if s == nil {
		return SpanIDs{}
	}
	return s.id
}

// ID is a trace or span ID. It encodes as its wire form, 16 lowercase hex
// digits.
type ID uint64

// MarshalText returns the wire form of id.
func (id ID) MarshalText() ([]byte, error) {
	b := new([16]byte)
	id.put(b)
	return b[:], nil
}

// put writes the wire form of id into b.
func (id ID) put(b *[16]byte) {
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = "0123456789abcdef"[id&15]
		id >>= 4
	}
}

// UnmarshalText parses the wire form.
func (id *ID) UnmarshalText(b []byte) error {
	v, err := ParseID(string(b))
	*id = ID(v)
	return err
}

// SpanIDs is a span's causal identity; Parent is zero for a root span. A
// payload that carries the IDs of the span it happened in embeds it.
type SpanIDs struct {
	Trace  ID `json:"trace_id"`
	Span   ID `json:"span_id,omitempty"`
	Parent ID `json:"parent_id,omitempty"`
}

// spanIDs gives EmitEventCtx the IDs a payload embeds.
func (ids *SpanIDs) spanIDs() *SpanIDs { return ids }

// Traced is a payload that embeds SpanIDs.
type Traced interface{ spanIDs() *SpanIDs }

// EmitEventCtx is EmitEvent for a payload that embeds SpanIDs, recorded
// under the active span in ctx: it sets the payload's IDs to that span's
// and names the event by the span's ID in wire form (FormatID), so an
// event's id equals its data's span_id. Span IDs derive from the call
// tree, not from the order work finishes, so a parallel run names its
// events as a serial run does. With no span open the payload gets the
// run's trace ID alone, so every journaled event of a run is at least
// trace-joinable, and the event no id. A no-op while the journal is
// disabled (data is not touched then).
func EmitEventCtx(ctx context.Context, typ EventType, data Traced) {
	if !defaultJournal.Enabled() {
		return
	}
	ids, id := SpanIDs{Trace: defaultTracer.currentTraceID()}, ""
	if s := SpanFromContext(ctx); s != nil {
		ids, id = s.id, FormatID(uint64(s.id.Span))
	}
	*data.spanIDs() = ids
	defaultJournal.Emit(typ, id, data)
}

// --- Chrome trace-event export ---------------------------------------------

// traceEvent is one Chrome trace-event ("X" complete event): ts/dur in
// microseconds, pid constant, tid a lane computed so concurrent causal
// chains render side by side.
type traceEvent struct {
	Name string    `json:"name"`
	Cat  string    `json:"cat"`
	Ph   string    `json:"ph"`
	TS   float64   `json:"ts"`
	Dur  float64   `json:"dur"`
	PID  int       `json:"pid"`
	TID  int       `json:"tid"`
	Args traceArgs `json:"args"`
}

// traceArgs are a trace event's args: the span's path and its IDs.
type traceArgs struct {
	Path string `json:"path"`
	SpanIDs
}

// traceEventDoc is the exported JSON document, the "JSON object format" of
// the Chrome trace-event spec that Perfetto and chrome://tracing accept.
type traceEventDoc struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

// assignLanes groups spans by their topmost known ancestor and packs the
// groups onto the fewest lanes such that no two time-overlapping groups
// share one — concurrent candidates of a parallel sweep land on separate
// lanes, while a sequential run collapses to lane 1. Deterministic for a
// given record set.
func assignLanes(recs []SpanEvent) map[ID]int {
	byID := make(map[ID]*SpanEvent, len(recs))
	for i := range recs {
		byID[recs[i].Span] = &recs[i]
	}
	top := func(r *SpanEvent) ID {
		cur := r
		// Bounded walk: a parent chain longer than the record count means a
		// cycle (corrupt input), so give up and treat the span as a root.
		for range recs {
			p, ok := byID[cur.Parent]
			if !ok || cur.Parent == 0 || p == cur {
				break
			}
			cur = p
		}
		return cur.Span
	}
	type interval struct {
		id         ID
		start, end float64
	}
	groups := map[ID]*interval{}
	for i := range recs {
		r := &recs[i]
		g := top(r)
		iv := groups[g]
		if iv == nil {
			iv = &interval{id: g, start: r.StartUS, end: r.StartUS + r.DurUS}
			groups[g] = iv
			continue
		}
		if r.StartUS < iv.start {
			iv.start = r.StartUS
		}
		if e := r.StartUS + r.DurUS; e > iv.end {
			iv.end = e
		}
	}
	ivs := make([]*interval, 0, len(groups))
	for _, iv := range groups {
		ivs = append(ivs, iv)
	}
	sort.Slice(ivs, func(i, j int) bool {
		if c := cmp.Compare(ivs[i].start, ivs[j].start); c != 0 {
			return c < 0
		}
		return ivs[i].id < ivs[j].id
	})
	var laneEnds []float64
	groupLane := map[ID]int{}
	for _, iv := range ivs {
		lane := -1
		for l, end := range laneEnds {
			if end <= iv.start {
				lane = l
				break
			}
		}
		if lane < 0 {
			lane = len(laneEnds)
			laneEnds = append(laneEnds, 0)
		}
		laneEnds[lane] = iv.end
		groupLane[iv.id] = lane
	}
	lanes := make(map[ID]int, len(recs))
	for i := range recs {
		lanes[recs[i].Span] = groupLane[top(&recs[i])] + 1
	}
	return lanes
}

// WriteTraceEventsTo writes spans as a Chrome trace-event JSON document.
// Timestamps are microseconds relative to the earliest span start, so the
// timeline opens at t=0 in Perfetto.
func WriteTraceEventsTo(w io.Writer, recs []SpanEvent) error {
	t0 := 0.0
	for i := range recs {
		if i == 0 || recs[i].StartUS < t0 {
			t0 = recs[i].StartUS
		}
	}
	sorted := append([]SpanEvent(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool {
		if c := cmp.Compare(sorted[i].StartUS, sorted[j].StartUS); c != 0 {
			return c < 0
		}
		return sorted[i].Span < sorted[j].Span
	})
	lanes := assignLanes(sorted)
	doc := traceEventDoc{DisplayTimeUnit: "ms", TraceEvents: make([]traceEvent, 0, len(sorted))}
	for _, r := range sorted {
		doc.TraceEvents = append(doc.TraceEvents, traceEvent{
			Name: r.Name,
			Cat:  "span",
			Ph:   "X",
			TS:   r.StartUS - t0,
			Dur:  r.DurUS,
			PID:  1,
			TID:  lanes[r.Span],
			Args: traceArgs{r.Path, r.SpanIDs},
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// SpanEvents decodes a journal's "span" events — the path /trace.json
// (over the journal ring) and mnsim-journal export (over a journal file)
// use to turn a journaled run into a Perfetto timeline. Span events that do
// not decode, or have no span ID or name, are skipped. A missing name or
// path is filled from the other, and a span without start_us starts at its
// event's time minus its duration: the event is emitted at span end.
func SpanEvents(events []Event) []SpanEvent {
	var recs []SpanEvent
	for _, ev := range events {
		var s SpanEvent
		if ev.Type != EvSpan || ev.Decode(&s) != nil || s.Span == 0 || s.Name == "" && s.Path == "" {
			continue
		}
		if s.Name == "" {
			s.Name = s.Path
		}
		if s.Path == "" {
			s.Path = s.Name
		}
		if s.StartUS == 0 {
			s.StartUS = float64(ev.TNS)/1e3 - s.DurUS
		}
		recs = append(recs, s)
	}
	return recs
}

// SpanStats aggregates spans per path, as the tracer aggregates the spans
// it ends: the post-hoc equivalent of the live /trace endpoint.
func SpanStats(recs []SpanEvent) []SpanStat {
	t := NewTracer()
	for _, r := range recs {
		d := time.Duration(r.DurUS * 1e3)
		t.fold(r.Path, spanAgg{count: 1, total: d, min: d, max: d})
	}
	return t.Stats()
}
