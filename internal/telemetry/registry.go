package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. The zero value is
// ready to use; all methods are safe for concurrent callers.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float metric holding the last value Set, stored as atomic
// float64 bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func addFloatBits(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Histogram is a fixed-bucket histogram: observation counts per upper
// bound plus a running sum and total count, all updated atomically (no
// lock on the observe path).
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf bucket is implicit
	counts  []atomic.Int64
	total   atomic.Int64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) (*Histogram, error) {
	if len(bounds) == 0 {
		bounds = DefBuckets()
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("telemetry: histogram bounds not strictly ascending at %d: %g <= %g",
				i, bounds[i], bounds[i-1])
		}
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Int64, len(bounds)+1)
	return h, nil
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// First bucket whose upper bound is >= v (le is inclusive, matching
	// Prometheus semantics); past the last bound lands in +Inf.
	idx := sort.SearchFloat64s(h.bounds, v)
	h.counts[idx].Add(1)
	h.total.Add(1)
	addFloatBits(&h.sumBits, v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// snapshot returns cumulative bucket counts aligned with bounds plus the
// +Inf bucket, along with count and sum. Concurrent observers may land
// between the loads; each individual load is atomic, which is the standard
// scrape-consistency contract.
func (h *Histogram) snapshot() (cum []int64, count int64, sum float64) {
	cum = make([]int64, len(h.counts))
	var running int64
	for i := range h.counts {
		running += h.counts[i].Load()
		cum[i] = running
	}
	return cum, h.total.Load(), h.Sum()
}

// DefBuckets is the default histogram bucket set: a decade-spanning
// exponential ladder suited to iteration counts and microsecond timings.
func DefBuckets() []float64 {
	return []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}
}

// LinearBuckets returns n buckets starting at start, spaced by width.
func LinearBuckets(start, width float64, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = start + float64(i)*width
	}
	return b
}

// ExponentialBuckets returns n buckets starting at start, each factor
// times the previous.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// Registry holds named metrics. Registration is lock-guarded; the returned
// metric handles update lock-free, so hot paths should hoist them into
// package-level variables rather than re-looking them up per call.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Invalid names panic: metric names are compile-time constants and a
// bad one is a programming error, not a runtime condition.
func (r *Registry) Counter(name string) *Counter {
	if err := validateName(name); err != nil {
		panic(err)
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if err := validateName(name); err != nil {
		panic(err)
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given upper bounds on first use (nil selects DefBuckets). Later
// calls return the existing histogram and ignore bounds.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if err := validateName(name); err != nil {
		panic(err)
	}
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		var err error
		h, err = newHistogram(bounds)
		if err != nil {
			panic(err)
		}
		r.histograms[name] = h
	}
	return h
}

// Reset removes every registered metric. Metric handles obtained before a
// Reset keep counting but no longer appear in exports; intended for tests.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = map[string]*Counter{}
	r.gauges = map[string]*Gauge{}
	r.histograms = map[string]*Histogram{}
}

// sortedNames returns the keys of m in lexical order so exports are
// deterministic.
func sortedNames[T any](m map[string]T) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes every metric in the Prometheus text exposition
// format (version 0.0.4): counters, gauges, then histograms with
// cumulative le-labelled buckets and _sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, name := range sortedNames(r.counters) {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, r.counters[name].Value()); err != nil {
			return err
		}
	}
	for _, name := range sortedNames(r.gauges) {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", name, name, formatFloat(r.gauges[name].Value())); err != nil {
			return err
		}
	}
	for _, name := range sortedNames(r.histograms) {
		h := r.histograms[name]
		cum, count, sum := h.snapshot()
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		for i, bound := range h.bounds {
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatFloat(bound), cum[i]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum[len(cum)-1]); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", name, formatFloat(sum), name, count); err != nil {
			return err
		}
	}
	return nil
}

// HistogramSnapshot is the JSON shape of one histogram. Mean and the
// quantiles are derived at snapshot time: quantiles interpolate linearly
// within the bucket containing the target rank, which is the standard
// fixed-bucket estimate — exact at bucket boundaries, bounded by bucket
// width inside them.
type HistogramSnapshot struct {
	Count   int64             `json:"count"`
	Sum     float64           `json:"sum"`
	Mean    float64           `json:"mean"`
	P50     float64           `json:"p50"`
	P90     float64           `json:"p90"`
	P99     float64           `json:"p99"`
	Buckets []HistogramBucket `json:"buckets"`
}

// HistogramBucket is one cumulative le-labelled bucket.
type HistogramBucket struct {
	LE         string `json:"le"`
	Cumulative int64  `json:"cumulative"`
}

// quantile estimates the q-quantile (0 < q < 1) from cumulative bucket
// counts aligned with bounds plus the trailing +Inf bucket. The rank is
// located by binary search and interpolated linearly across the containing
// bucket; ranks landing in the +Inf bucket clamp to the last finite bound,
// which has no upper edge to interpolate toward.
func quantile(bounds []float64, cum []int64, q float64) float64 {
	total := cum[len(cum)-1]
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	rank := q * float64(total)
	idx := sort.Search(len(cum), func(i int) bool { return float64(cum[i]) >= rank })
	if idx >= len(bounds) {
		return bounds[len(bounds)-1]
	}
	lo, clo := 0.0, int64(0)
	if idx > 0 {
		lo, clo = bounds[idx-1], cum[idx-1]
	}
	hi := bounds[idx]
	in := cum[idx] - clo
	if in == 0 {
		return hi
	}
	return lo + (hi-lo)*(rank-float64(clo))/float64(in)
}

// histogramSnapshot builds the JSON shape for one histogram, deriving the
// mean and interpolated quantiles from the captured bucket state.
func histogramSnapshot(h *Histogram) HistogramSnapshot {
	cum, count, sum := h.snapshot()
	hj := HistogramSnapshot{Count: count, Sum: sum}
	if count > 0 {
		hj.Mean = sum / float64(count)
		hj.P50 = quantile(h.bounds, cum, 0.50)
		hj.P90 = quantile(h.bounds, cum, 0.90)
		hj.P99 = quantile(h.bounds, cum, 0.99)
	}
	for i, bound := range h.bounds {
		hj.Buckets = append(hj.Buckets, HistogramBucket{LE: formatFloat(bound), Cumulative: cum[i]})
	}
	hj.Buckets = append(hj.Buckets, HistogramBucket{LE: "+Inf", Cumulative: cum[len(cum)-1]})
	return hj
}

// MetricsSnapshot is a point-in-time export of a full registry — the JSON
// metrics dump, the /metrics.json payload, and the final-metrics section
// of a run manifest all share this shape.
type MetricsSnapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every metric's current value.
func (r *Registry) Snapshot() MetricsSnapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := MetricsSnapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		out.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		out.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		out.Histograms[name] = histogramSnapshot(h)
	}
	return out
}

// WriteJSON writes every metric as one JSON document (keys sorted by
// encoding/json's map ordering, so the output is deterministic).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
