package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer's public function, recorded from the
// benchmark's own code. Parent is the enclosing span's ID (0 for a root) and
// Op the index of the operation it belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span in memory; they are written out when the run
// ends. It is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, op, parent int) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: int64(time.Since(t.t0)),
	})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.dur())
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Overlapping children count once, and a child
// reaching outside its parent is clipped to it.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, reach := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// layerRow is one line of the per-layer self-time table.
type layerRow struct {
	Name          string
	Count         int
	TotalMS, Self float64
}

// layerTable sums span and self time per span name, largest self time
// first.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	rows := map[string]*layerRow{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.TotalMS += float64(s.dur()) / 1e6
		r.Self += float64(self[s.ID]) / 1e6
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// writeLayerTable prints the self-time table.
func writeLayerTable(w io.Writer, spans []span) {
	var all float64
	rows := layerTable(spans)
	for _, r := range rows {
		all += r.Self
	}
	fmt.Fprintf(w, "%-22s %7s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms", "self%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %7d %12.3f %12.3f %6.1f%%\n", r.Name, r.Count, r.TotalMS, r.Self, 100*r.Self/all)
	}
}

// writeSpans writes every span as one JSON document.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		_ = f.Close() // the encode error is the one worth reporting
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
