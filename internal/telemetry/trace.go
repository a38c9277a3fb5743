package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
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
	return fmt.Sprintf("%016x", id)
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
func (t *Tracer) currentTraceID() uint64 {
	if id := t.traceID.Load(); id != 0 {
		return id
	}
	return mix64(traceSalt)
}

// deriveIDs computes a new span's (trace, span, parent) ID triple. The
// span ID mixes the parent's span ID, the span name, and a sibling
// discriminator: an explicit key when the caller supplied one
// (StartSpanKeyed — required for spans started concurrently under a shared
// parent, e.g. per-candidate spans in pooled sweep workers, where an
// ordinal would depend on scheduling), otherwise the parent's ordinal
// child counter (deterministic for sequentially started siblings).
func (t *Tracer) deriveIDs(parent *Span, name, key string) (traceID, spanID, parentID uint64) {
	if parent != nil {
		traceID = parent.traceID
		parentID = parent.spanID
	} else {
		traceID = t.currentTraceID()
	}
	var disc uint64
	if key != "" {
		disc = fnv64(key)
	} else if parent != nil {
		disc = uint64(parent.kids.Add(1))
	} else {
		disc = uint64(t.rootSeq.Add(1))
	}
	spanID = mix64(mix64(traceID^parentID) ^ mix64(fnv64(name)^disc))
	if spanID == 0 {
		spanID = 1
	}
	return traceID, spanID, parentID
}

// SpanRecord is one completed span as decoded from a journal "span" event:
// the unit of the Chrome trace-event export. StartNS is wall-clock Unix
// nanoseconds; DurNS the span's elapsed time.
type SpanRecord struct {
	// Name is the span's leaf name, Path its full hierarchical name.
	Name string
	Path string
	// TraceID / SpanID / ParentID form the causal chain; ParentID is zero
	// for root spans.
	TraceID  uint64
	SpanID   uint64
	ParentID uint64
	StartNS  int64
	DurNS    int64
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

// TraceID / SpanID / ParentID expose the span's causal identity; nil-safe
// (zero for a nil span).
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.traceID
}

// SpanID returns the span's own ID.
func (s *Span) SpanID() uint64 {
	if s == nil {
		return 0
	}
	return s.spanID
}

// ParentID returns the span's parent span ID (zero for root spans).
func (s *Span) ParentID() uint64 {
	if s == nil {
		return 0
	}
	return s.parentID
}

// SpanIDs is a span's causal identity; Parent is zero for a root span.
type SpanIDs struct {
	Trace, Span, Parent uint64
}

// ids returns the span's causal identity.
func (s *Span) ids() SpanIDs {
	return SpanIDs{Trace: s.traceID, Span: s.spanID, Parent: s.parentID}
}

// Stamp writes the IDs into an event payload in wire form (16-hex-digit
// strings) as trace_id, span_id and, for a child span, parent_id.
func (ids SpanIDs) Stamp(data map[string]any) {
	data["trace_id"] = FormatID(ids.Trace)
	data["span_id"] = FormatID(ids.Span)
	if ids.Parent != 0 {
		data["parent_id"] = FormatID(ids.Parent)
	}
}

// StampTraceIDs writes the active span's trace/span/parent IDs into an
// event payload (wire form: 16-hex-digit strings). With no span open only
// the trace ID is stamped, so every journaled event of a run is at least
// trace-joinable.
func StampTraceIDs(ctx context.Context, data map[string]any) {
	if s := SpanFromContext(ctx); s != nil {
		s.ids().Stamp(data)
		return
	}
	data["trace_id"] = FormatID(defaultTracer.currentTraceID())
}

// EmitEventCtx is EmitEvent with the active span's trace/span/parent IDs
// stamped into data — the bridge that makes solve, candidate, and trial
// events joinable against the span timeline. A no-op while the journal is
// disabled (data is not touched then).
func EmitEventCtx(ctx context.Context, typ EventType, id string, data map[string]any) {
	if !defaultJournal.Enabled() {
		return
	}
	if data == nil {
		data = map[string]any{}
	}
	StampTraceIDs(ctx, data)
	defaultJournal.Emit(typ, id, data)
}

// --- Chrome trace-event export ---------------------------------------------

// traceEvent is one Chrome trace-event ("X" complete event): ts/dur in
// microseconds, pid constant, tid a lane computed so concurrent causal
// chains render side by side.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
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
func assignLanes(recs []SpanRecord) map[uint64]int {
	byID := make(map[uint64]*SpanRecord, len(recs))
	for i := range recs {
		byID[recs[i].SpanID] = &recs[i]
	}
	top := func(r *SpanRecord) uint64 {
		cur := r
		// Bounded walk: a parent chain longer than the record count means a
		// cycle (corrupt input), so give up and treat the span as a root.
		for range recs {
			p, ok := byID[cur.ParentID]
			if !ok || cur.ParentID == 0 || p == cur {
				break
			}
			cur = p
		}
		return cur.SpanID
	}
	type interval struct {
		id         uint64
		start, end int64
	}
	groups := map[uint64]*interval{}
	for i := range recs {
		r := &recs[i]
		g := top(r)
		iv := groups[g]
		if iv == nil {
			iv = &interval{id: g, start: r.StartNS, end: r.StartNS + r.DurNS}
			groups[g] = iv
			continue
		}
		if r.StartNS < iv.start {
			iv.start = r.StartNS
		}
		if e := r.StartNS + r.DurNS; e > iv.end {
			iv.end = e
		}
	}
	ivs := make([]*interval, 0, len(groups))
	for _, iv := range groups {
		ivs = append(ivs, iv)
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].start != ivs[j].start {
			return ivs[i].start < ivs[j].start
		}
		return ivs[i].id < ivs[j].id
	})
	var laneEnds []int64
	groupLane := map[uint64]int{}
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
	lanes := make(map[uint64]int, len(recs))
	for i := range recs {
		lanes[recs[i].SpanID] = groupLane[top(&recs[i])] + 1
	}
	return lanes
}

// WriteTraceEventsTo writes span records as a Chrome trace-event JSON
// document. Timestamps are microseconds relative to the earliest span
// start, so the timeline opens at t=0 in Perfetto.
func WriteTraceEventsTo(w io.Writer, recs []SpanRecord) error {
	t0 := int64(0)
	for i := range recs {
		if i == 0 || recs[i].StartNS < t0 {
			t0 = recs[i].StartNS
		}
	}
	sorted := append([]SpanRecord(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].StartNS != sorted[j].StartNS {
			return sorted[i].StartNS < sorted[j].StartNS
		}
		return sorted[i].SpanID < sorted[j].SpanID
	})
	lanes := assignLanes(sorted)
	doc := traceEventDoc{DisplayTimeUnit: "ms", TraceEvents: make([]traceEvent, 0, len(sorted))}
	for _, r := range sorted {
		args := map[string]any{
			"path":     r.Path,
			"trace_id": FormatID(r.TraceID),
			"span_id":  FormatID(r.SpanID),
		}
		if r.ParentID != 0 {
			args["parent_id"] = FormatID(r.ParentID)
		}
		doc.TraceEvents = append(doc.TraceEvents, traceEvent{
			Name: r.Name,
			Cat:  "span",
			Ph:   "X",
			TS:   float64(r.StartNS-t0) / 1e3,
			Dur:  float64(r.DurNS) / 1e3,
			PID:  1,
			TID:  lanes[r.SpanID],
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// SpanRecordsFromEvents reconstructs span records from a journal's "span"
// events — the path /trace.json (over the journal ring) and mnsim-journal
// export (over a journal file) use to turn a journaled run into a Perfetto
// timeline. Events with missing or malformed span payloads are skipped.
func SpanRecordsFromEvents(events []Event) []SpanRecord {
	var recs []SpanRecord
	for _, ev := range events {
		if ev.Type != EvSpan {
			continue
		}
		r, ok := spanRecordFromData(ev)
		if !ok {
			continue
		}
		recs = append(recs, r)
	}
	return recs
}

// spanRecordFromData decodes one span event payload.
func spanRecordFromData(ev Event) (SpanRecord, bool) {
	name, _ := ev.Data["name"].(string)
	path, _ := ev.Data["path"].(string)
	if name == "" && path == "" {
		return SpanRecord{}, false
	}
	if name == "" {
		name = path
	}
	if path == "" {
		path = name
	}
	parse := func(key string) uint64 {
		s, _ := ev.Data[key].(string)
		if s == "" {
			return 0
		}
		id, err := ParseID(s)
		if err != nil {
			return 0
		}
		return id
	}
	r := SpanRecord{
		Name:     name,
		Path:     path,
		TraceID:  parse("trace_id"),
		SpanID:   parse("span_id"),
		ParentID: parse("parent_id"),
	}
	if r.SpanID == 0 {
		return SpanRecord{}, false
	}
	durUS, _ := ev.Data["dur_us"].(float64)
	r.DurNS = int64(durUS * 1e3)
	if startUS, ok := ev.Data["start_us"].(float64); ok {
		r.StartNS = int64(startUS * 1e3)
	} else {
		// Fall back to the event envelope time minus the duration — the
		// event is emitted at span end.
		r.StartNS = ev.TNS - r.DurNS
	}
	return r, true
}
