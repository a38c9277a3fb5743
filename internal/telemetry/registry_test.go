package telemetry

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mnsim_test_total")
	c.Inc()
	c.Add(41)
	c.Add(-5) // counters only go up
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if r.Counter("mnsim_test_total") != c {
		t.Fatal("re-registration returned a different counter")
	}
	g := r.Gauge("mnsim_test_gauge")
	g.Set(2.5)
	g.Set(2)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %g, want 2", got)
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("mnsim_test_hist", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 2, 5, 100} {
		h.Observe(v)
	}
	cum, count, sum := h.snapshot()
	// le is inclusive: le=1 holds {0.5, 1}, le=2 adds {1.5, 2}, le=5 adds
	// {5}, +Inf adds {100}.
	want := []int64{2, 4, 5, 6}
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cumulative[%d] = %d, want %d (all %v)", i, cum[i], w, cum)
		}
	}
	if count != 6 || sum != 110 {
		t.Fatalf("count %d sum %g, want 6 and 110", count, sum)
	}
}

func TestInvalidNamesAndBoundsPanic(t *testing.T) {
	r := NewRegistry()
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("empty name", func() { r.Counter("") })
	mustPanic("space in name", func() { r.Gauge("bad name") })
	mustPanic("leading digit", func() { r.Counter("9lives") })
	mustPanic("descending bounds", func() { r.Histogram("mnsim_bad_bounds", []float64{2, 1}) })
}

// The registry is shared mutable state hammered from every solver hot
// path; this test exists to fail under -race if any update path loses its
// atomicity.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const perG = 2000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := r.Counter("mnsim_hammer_total")
			g := r.Gauge("mnsim_hammer_gauge")
			h := r.Histogram("mnsim_hammer_hist", []float64{1, 10, 100})
			for k := 0; k < perG; k++ {
				c.Inc()
				g.Set(float64(k))
				h.Observe(float64(k % 200))
			}
		}(i)
	}
	wg.Wait()
	if got := r.Counter("mnsim_hammer_total").Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := r.Gauge("mnsim_hammer_gauge").Value(); got != perG-1 {
		t.Fatalf("gauge = %g, want %d", got, perG-1)
	}
	h := r.Histogram("mnsim_hammer_hist", nil)
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
	// Each goroutine observes 0…199 ten times; the sums are exact in
	// float64, so a lost compare-and-swap update shows.
	if got, want := h.Sum(), float64(goroutines*perG/200*(199*200/2)); got != want {
		t.Fatalf("histogram sum = %g, want %g", got, want)
	}
}

func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("mnsim_solves_total").Add(3)
	r.Gauge("mnsim_rate").Set(1.5)
	h := r.Histogram("mnsim_iters", []float64{1, 5})
	h.Observe(1)
	h.Observe(4)
	h.Observe(9)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE mnsim_solves_total counter
mnsim_solves_total 3
# TYPE mnsim_rate gauge
mnsim_rate 1.5
# TYPE mnsim_iters histogram
mnsim_iters_bucket{le="1"} 1
mnsim_iters_bucket{le="5"} 2
mnsim_iters_bucket{le="+Inf"} 3
mnsim_iters_sum 14
mnsim_iters_count 3
`
	if sb.String() != want {
		t.Fatalf("Prometheus export mismatch:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
}

func TestWriteJSONGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("mnsim_solves_total").Add(2)
	r.Gauge("mnsim_rate").Set(0.25)
	h := r.Histogram("mnsim_iters", []float64{10})
	h.Observe(7)
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var got MetricsSnapshot
	if err := json.Unmarshal([]byte(sb.String()), &got); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, sb.String())
	}
	if got.Counters["mnsim_solves_total"] != 2 {
		t.Errorf("counter = %d, want 2", got.Counters["mnsim_solves_total"])
	}
	if got.Gauges["mnsim_rate"] != 0.25 {
		t.Errorf("gauge = %g, want 0.25", got.Gauges["mnsim_rate"])
	}
	hj, ok := got.Histograms["mnsim_iters"]
	if !ok {
		t.Fatal("histogram missing from JSON export")
	}
	if hj.Count != 1 || hj.Sum != 7 {
		t.Errorf("histogram count %d sum %g, want 1 and 7", hj.Count, hj.Sum)
	}
	if len(hj.Buckets) != 2 || hj.Buckets[0].LE != "10" || hj.Buckets[1].LE != "+Inf" {
		t.Errorf("buckets = %+v", hj.Buckets)
	}
	if hj.Buckets[0].Cumulative != 1 || hj.Buckets[1].Cumulative != 1 {
		t.Errorf("cumulative counts = %+v", hj.Buckets)
	}
}

func TestRegistryReset(t *testing.T) {
	r := NewRegistry()
	r.Counter("mnsim_gone_total").Inc()
	r.Reset()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Fatalf("export after Reset: %q", sb.String())
	}
}

func TestBucketHelpers(t *testing.T) {
	lin := LinearBuckets(1, 2, 3)
	if lin[0] != 1 || lin[1] != 3 || lin[2] != 5 {
		t.Fatalf("LinearBuckets = %v", lin)
	}
	exp := ExponentialBuckets(2, 4, 3)
	if exp[0] != 2 || exp[1] != 8 || exp[2] != 32 {
		t.Fatalf("ExponentialBuckets = %v", exp)
	}
}

// TestHistogramQuantiles pins the snapshot's derived statistics on a
// hand-computable distribution: 100 uniform samples over (0, 10] in buckets
// {1,..,10} put exactly 10 in each, so interpolated quantiles are exact.
func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("mnsim_test_quant", LinearBuckets(1, 1, 10))
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 10)
	}
	hj := histogramSnapshot(h)
	if hj.Count != 100 {
		t.Fatalf("count = %d, want 100", hj.Count)
	}
	if got, want := hj.Mean, 5.05; math.Abs(got-want) > 1e-9 {
		t.Errorf("mean = %g, want %g", got, want)
	}
	for _, tc := range []struct {
		name string
		got  float64
		want float64
	}{{"p50", hj.P50, 5}, {"p90", hj.P90, 9}, {"p99", hj.P99, 9.9}} {
		if math.Abs(tc.got-tc.want) > 1e-9 {
			t.Errorf("%s = %g, want %g", tc.name, tc.got, tc.want)
		}
	}
}

// TestHistogramQuantileEdges: empty histograms report zeros, single-bucket
// mass interpolates from the bucket's lower edge, and ranks landing in the
// +Inf bucket clamp to the last finite bound.
func TestHistogramQuantileEdges(t *testing.T) {
	r := NewRegistry()
	empty := r.Histogram("mnsim_test_quant_empty", []float64{1, 2})
	ej := histogramSnapshot(empty)
	if ej.Mean != 0 || ej.P50 != 0 || ej.P99 != 0 {
		t.Errorf("empty histogram stats nonzero: %+v", ej)
	}

	// All mass in the first bucket: p50 interpolates across (0, 4].
	first := r.Histogram("mnsim_test_quant_first", []float64{4, 8})
	for i := 0; i < 10; i++ {
		first.Observe(2)
	}
	fj := histogramSnapshot(first)
	if got, want := fj.P50, 2.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("first-bucket p50 = %g, want %g", got, want)
	}

	// Mass beyond the last bound clamps to it rather than extrapolating
	// into the unbounded +Inf bucket.
	inf := r.Histogram("mnsim_test_quant_inf", []float64{1, 2})
	for i := 0; i < 10; i++ {
		inf.Observe(50)
	}
	ij := histogramSnapshot(inf)
	if ij.P50 != 2 || ij.P99 != 2 {
		t.Errorf("+Inf-bucket quantiles = %g/%g, want clamp to 2", ij.P50, ij.P99)
	}
}
