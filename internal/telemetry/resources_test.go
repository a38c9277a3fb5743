package telemetry

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"
	"time"
)

// startTestSampler starts the default sampler with the given config and
// guarantees it is stopped at test end.
func startTestSampler(t *testing.T, cfg ResourceConfig) {
	t.Helper()
	if err := defaultResources.Start(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(defaultResources.Stop)
}

// useRingJournal makes a ring-only journal the default for the test. Call
// it before starting the sampler: the restore then runs after the sampler's
// Stop, so the sampling goroutine never sees the swap.
func useRingJournal(t *testing.T) *Journal {
	t.Helper()
	j := NewJournal(0)
	j.EnableRing()
	old := defaultJournal
	defaultJournal = j
	t.Cleanup(func() { defaultJournal = old })
	return j
}

// sampled reports whether the default sampler has taken at least n samples.
func sampled(n int64) func() bool {
	return func() bool { return defaultResources.Rollup().Samples >= n }
}

// waitFor polls until cond holds or the deadline passes — the sampler is
// timing-driven, so assertions poll instead of sleeping fixed amounts.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestResourceSamplerSamples(t *testing.T) {
	j := useRingJournal(t)
	startTestSampler(t, ResourceConfig{Interval: 5 * time.Millisecond})
	waitFor(t, 5*time.Second, "two samples", sampled(2))
	defaultResources.Stop()
	samples := ResourceSamples(j.ringEvents())
	if len(samples) < 2 {
		t.Fatalf("journal ring holds %d samples, want at least 2", len(samples))
	}
	last := samples[len(samples)-1]
	if last.HeapLiveBytes == 0 || last.HeapGoalBytes == 0 {
		t.Fatalf("empty heap stats: %+v", last)
	}
	if last.Goroutines <= 0 {
		t.Fatalf("goroutines = %d", last.Goroutines)
	}
	if last.TotalAllocBytes == 0 {
		t.Fatalf("no allocation total: %+v", last)
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].TNS <= 0 || samples[i].TNS < samples[i-1].TNS {
			t.Fatalf("samples out of order at %d", i)
		}
		if samples[i].TotalAllocBytes < samples[i-1].TotalAllocBytes {
			t.Fatalf("cumulative alloc total went backwards at %d", i)
		}
	}
	r := defaultResources.Rollup()
	if r == nil {
		t.Fatal("nil rollup after a sampled run")
	}
	if r.Samples != int64(len(samples)) || r.PeakHeapLiveBytes == 0 || r.MaxGoroutines <= 0 {
		t.Fatalf("rollup not filled: %+v", r)
	}
	// Registry export: the gauges carry the last sample.
	if got := telHeapLive.Value(); got != float64(last.HeapLiveBytes) {
		t.Fatalf("heap gauge %v, want %v", got, last.HeapLiveBytes)
	}
	if telAllocBytes.Value() <= 0 {
		t.Fatal("alloc counter never advanced")
	}
}

// Stop must flush one final sample even when the interval never elapsed —
// the clean-shutdown contract.
func TestResourceSamplerFinalFlush(t *testing.T) {
	j, path := newTestJournal(t, 64)
	old := defaultJournal
	defaultJournal = j
	t.Cleanup(func() { defaultJournal = old })

	startTestSampler(t, ResourceConfig{Interval: time.Hour})
	defaultResources.Stop()
	if n := defaultResources.Rollup().Samples; n != 1 {
		t.Fatalf("got %d samples, want exactly the final flush", n)
	}
	j.Close()
	events, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	saw := 0
	for _, ev := range events {
		if ev.Type == EvResourceSample {
			saw++
			var smp ResourceSample
			if err := ev.Decode(&smp); err != nil || smp.HeapLiveBytes == 0 {
				t.Fatalf("resource_sample without heap data: %s (%v)", ev.Data, err)
			}
		}
	}
	if saw != 1 {
		t.Fatalf("%d resource_sample events journaled, want the shutdown flush only", saw)
	}
}

// The sampler and its watchdogs must leave no goroutines behind after
// Stop, across repeated start/stop cycles and context cancellation.
func TestResourceSamplerGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		if err := defaultResources.Start(context.Background(), ResourceConfig{Interval: time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
		defaultResources.Stop()
	}
	// Cancellation path: the loop must exit on ctx alone.
	ctx, cancel := context.WithCancel(context.Background())
	if err := defaultResources.Start(ctx, ResourceConfig{Interval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	cancel()
	waitFor(t, 5*time.Second, "loop exit on cancel", func() bool {
		defaultResources.mu.Lock()
		defer defaultResources.mu.Unlock()
		return !defaultResources.running
	})
	waitFor(t, 5*time.Second, "goroutine count to settle", func() bool {
		return runtime.NumGoroutine() <= before
	})
}

// A double start must fail, and Stop on a stopped sampler is a no-op.
func TestResourceSamplerLifecycle(t *testing.T) {
	defaultResources.Stop() // no-op on a stopped sampler
	startTestSampler(t, ResourceConfig{Interval: time.Hour})
	if err := defaultResources.Start(context.Background(), ResourceConfig{Interval: time.Hour}); err == nil {
		t.Fatal("second Start succeeded on a running sampler")
	}
	defaultResources.Stop()
	defaultResources.Stop() // idempotent
}

// A tiny soft limit must fire mem_pressure exactly once (no re-arm while
// the heap stays above 90% of the limit), journal the event, capture a
// heap profile next to the journal, and count into the rollup.
func TestResourceSamplerMemPressure(t *testing.T) {
	j, path := newTestJournal(t, 256)
	old := defaultJournal
	defaultJournal = j
	t.Cleanup(func() { defaultJournal = old })

	startTestSampler(t, ResourceConfig{
		Interval:          3 * time.Millisecond,
		MemSoftLimitBytes: 1, // any live heap crosses this
	})
	waitFor(t, 5*time.Second, "several samples", sampled(4))
	defaultResources.Stop()
	r := defaultResources.Rollup()
	if r.MemPressureEvents != 1 {
		t.Fatalf("mem pressure fired %d times, want exactly 1 (hysteresis)", r.MemPressureEvents)
	}
	j.Close()
	events, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ev *Event
	for i := range events {
		if events[i].Type == EvMemPressure {
			ev = &events[i]
			break
		}
	}
	if ev == nil {
		t.Fatal("no mem_pressure event journaled")
	}
	var mp MemPressureEvent
	if err := ev.Decode(&mp); err != nil || mp.LimitBytes != 1 {
		t.Fatalf("mem_pressure %s (%v)", ev.Data, err)
	}
	prof := mp.HeapProfile
	if prof == "" {
		t.Fatal("mem_pressure event carries no heap profile path")
	}
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Fatalf("heap profile %s missing or empty: %v", prof, err)
	}
	if filepath.Dir(prof) != filepath.Dir(path) {
		t.Fatalf("capture %s not next to journal %s", prof, path)
	}
}

// With no journal/progress activity the stall watchdog must fire, capture
// a goroutine profile, and journal watchdog_stall; the sampler's own
// resource_sample events must not count as activity.
func TestResourceSamplerStallWatchdog(t *testing.T) {
	j, path := newTestJournal(t, 256)
	old := defaultJournal
	defaultJournal = j
	t.Cleanup(func() { defaultJournal = old })

	startTestSampler(t, ResourceConfig{
		Interval:     3 * time.Millisecond,
		StallTimeout: 15 * time.Millisecond,
	})
	waitFor(t, 5*time.Second, "stall to fire", func() bool {
		return defaultResources.Rollup().WatchdogStalls >= 1
	})
	defaultResources.Stop()
	j.Close()
	events, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ev *Event
	for i := range events {
		if events[i].Type == EvWatchdogStall {
			ev = &events[i]
			break
		}
	}
	if ev == nil {
		t.Fatal("no watchdog_stall event journaled")
	}
	var st WatchdogStallEvent
	if err := ev.Decode(&st); err != nil || st.QuietMS < 10 {
		t.Fatalf("watchdog_stall %s (%v)", ev.Data, err)
	}
	prof := st.GoroutineProfile
	if prof == "" {
		t.Fatal("watchdog_stall carries no goroutine profile path")
	}
	b, err := os.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "goroutine") {
		t.Fatalf("goroutine profile %s does not look like a dump", prof)
	}
}

// Activity (journal or progress traffic) must hold the stall watchdog off.
func TestResourceSamplerStallSuppressedByActivity(t *testing.T) {
	j, _ := newTestJournal(t, 256)
	old := defaultJournal
	defaultJournal = j
	t.Cleanup(func() { defaultJournal = old })

	startTestSampler(t, ResourceConfig{
		Interval:     2 * time.Millisecond,
		StallTimeout: 20 * time.Millisecond,
	})
	deadline := time.Now().Add(100 * time.Millisecond)
	for time.Now().Before(deadline) {
		j.Emit(EvPhase, "busy", nil) // keeps the activity counter moving
		time.Sleep(2 * time.Millisecond)
	}
	defaultResources.Stop()
	if n := defaultResources.Rollup().WatchdogStalls; n != 0 {
		t.Fatalf("watchdog fired %d times despite continuous activity", n)
	}
}

// Continuous profiling must produce rotating CPU profiles and a final heap
// profile under -profile-dir, and report them as artifacts.
func TestResourceSamplerContinuousProfiling(t *testing.T) {
	dir := t.TempDir()
	arts := map[string]string{}
	old := profileInterval
	profileInterval = 10 * time.Millisecond
	t.Cleanup(func() { profileInterval = old })
	startTestSampler(t, ResourceConfig{
		Interval:   3 * time.Millisecond,
		ProfileDir: dir,
		Artifact:   func(kind, path string) { arts[kind] = path },
	})
	waitFor(t, 5*time.Second, "profile rotation", func() bool {
		m, _ := filepath.Glob(filepath.Join(dir, "cpu-*.pprof"))
		return len(m) >= 2
	})
	defaultResources.Stop()
	cpus, _ := filepath.Glob(filepath.Join(dir, "cpu-*.pprof"))
	heaps, _ := filepath.Glob(filepath.Join(dir, "heap-*.pprof"))
	if len(cpus) < 2 {
		t.Fatalf("want >= 2 rotated cpu profiles, got %v", cpus)
	}
	if len(heaps) < 1 {
		t.Fatalf("want a heap profile, got %v", heaps)
	}
	if arts["profile_cpu"] == "" || arts["profile_heap"] == "" {
		t.Fatalf("profile artifacts not recorded: %v", arts)
	}
}

// /resources.json serves the rollup and the resource_sample events in the
// journal ring, each with every key of a ResourceSample.
func TestResourcesEndpoint(t *testing.T) {
	useRingJournal(t)
	startTestSampler(t, ResourceConfig{Interval: 3 * time.Millisecond})
	waitFor(t, 5*time.Second, "a sample", sampled(1))
	srv := httptest.NewServer(NewServeMux(nil))
	defer srv.Close()
	status, _, body := get(t, srv.URL+"/resources.json")
	if status != 200 {
		t.Fatalf("/resources.json status %d", status)
	}
	var doc struct {
		Enabled bool             `json:"enabled"`
		Rollup  *ResourceRollup  `json:"rollup"`
		Samples []map[string]any `json:"samples"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Enabled || doc.Rollup == nil || doc.Rollup.PeakHeapLiveBytes == 0 || len(doc.Samples) == 0 {
		t.Fatalf("/resources.json not live:\n%s", body)
	}
	keys := []string{"t_ns", "heap_live_bytes", "heap_goal_bytes", "total_alloc_bytes",
		"total_alloc_objects", "goroutines", "gc_cycles", "gc_pause_total_ns",
		"gc_cpu_fraction", "sched_latency_p50_us", "sched_latency_p99_us"}
	for i, smp := range doc.Samples {
		if len(smp) != len(keys) {
			t.Fatalf("sample %d has %d keys, want %d: %v", i, len(smp), len(keys), smp)
		}
		for _, k := range keys {
			if _, ok := smp[k]; !ok {
				t.Fatalf("sample %d lacks %q: %v", i, k, smp)
			}
		}
		if smp["t_ns"].(float64) <= 0 {
			t.Fatalf("sample %d has no time: %v", i, smp)
		}
	}
}

// The flag layer end to end: resource flags start the sampler, Finish
// stops it and lands the rollup in the manifest.
func TestFlagsResourceRollupInManifest(t *testing.T) {
	dir := t.TempDir()
	runOut := filepath.Join(dir, "run.json")
	f := &Flags{
		RunOut:           runOut,
		ResourceInterval: 3 * time.Millisecond,
		Run:              NewRunInfo(),
	}
	f.Run.SetTool("resources-test")
	if err := f.StartContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "samples", sampled(2))
	if err := f.Finish(); err != nil {
		t.Fatal(err)
	}
	m, err := LoadManifest(runOut)
	if err != nil {
		t.Fatal(err)
	}
	if m.Resources == nil {
		t.Fatal("manifest has no resources rollup")
	}
	if m.Resources.Samples < 2 || m.Resources.PeakHeapLiveBytes == 0 || m.Resources.MaxGoroutines <= 0 {
		t.Fatalf("rollup not populated: %+v", m.Resources)
	}
}

func TestParseByteSize(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
		err  bool
	}{
		{"", 0, false},
		{"0", 0, false},
		{"1234", 1234, false},
		{"64MiB", 64 << 20, false},
		{"64mib", 64 << 20, false},
		{"1 GiB", 1 << 30, false},
		{"512KiB", 512 << 10, false},
		{"2KB", 2000, false},
		{"3MB", 3000000, false},
		{"1GB", 1000000000, false},
		{"64M", 64 << 20, false},
		{"2k", 2 << 10, false},
		{"1g", 1 << 30, false},
		{"100B", 100, false},
		{"1.5MiB", 3 << 19, false},
		{"-1", 0, true},
		{"howmuch", 0, true},
		{"MiB", 0, true},
		// Non-finite sizes and sizes of 2^64 bytes or more do not fit a
		// uint64 and must not wrap to 2^63.
		{"NaN", 0, true},
		{"Inf", 0, true},
		{"1e30", 0, true},
		{"1e19MB", 0, true},
		{"18446744073709551616", 0, true},
	}
	for _, c := range cases {
		got, err := ParseByteSize(c.in)
		if c.err != (err != nil) {
			t.Errorf("ParseByteSize(%q) err = %v, want err=%v", c.in, err, c.err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseByteSize(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestFormatByteSize(t *testing.T) {
	cases := []struct {
		in   uint64
		want string
	}{
		{512, "512 B"},
		{64 << 20, "64.0 MiB"},
		{1 << 30, "1.0 GiB"},
		{1536, "1.5 KiB"},
	}
	for _, c := range cases {
		if got := FormatByteSize(c.in); got != c.want {
			t.Errorf("FormatByteSize(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

// The histogram helpers against a hand-built runtime/metrics histogram,
// including the open-ended edge buckets.
func TestRuntimeHistogramHelpers(t *testing.T) {
	h := &metrics.Float64Histogram{
		Counts:  []uint64{2, 6, 2},
		Buckets: []float64{0, 10, 20, 30},
	}
	// midpoints 5, 15, 25 → 2·5 + 6·15 + 2·25 = 150
	if got := histogramSum(h); got != 150 {
		t.Fatalf("histogramSum = %v, want 150", got)
	}
	// p50: target = 5 of 10 → bucket [10,20), 3 of 6 into it → 15.
	if got := histogramQuantile(h, 0.5); got != 15 {
		t.Fatalf("p50 = %v, want 15", got)
	}
	inf := math.Inf(1)
	edge := &metrics.Float64Histogram{
		Counts:  []uint64{1, 1},
		Buckets: []float64{-inf, 5, inf},
	}
	// -Inf bucket contributes its finite edge (5), +Inf likewise (5).
	if got := histogramSum(edge); got != 10 {
		t.Fatalf("edge sum = %v, want 10", got)
	}
	if got := histogramQuantile(edge, 0.99); got != 5 {
		t.Fatalf("edge p99 = %v, want 5", got)
	}
	if got := histogramQuantile(&metrics.Float64Histogram{Counts: []uint64{0}, Buckets: []float64{0, 1}}, 0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v", got)
	}
}

// Every runtime/metrics series the sampler reads must exist on the current
// toolchain — a rename in a future Go release should fail loudly here, not
// silently sample zeros.
func TestResourceMetricNamesSupported(t *testing.T) {
	known := map[string]bool{}
	for _, d := range metrics.All() {
		known[d.Name] = true
	}
	for _, name := range resourceMetricNames {
		if !known[name] {
			t.Errorf("runtime/metrics series %q not supported by this toolchain", name)
		}
	}
}
