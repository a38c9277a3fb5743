package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The resource sampler: a background observer over Go's runtime/metrics
// that turns the process's physical footprint — heap, GC, goroutines,
// scheduler latency — into the same surfaces every other telemetry layer
// uses: registry gauges/counters, journal events (which the
// /resources.json endpoint serves from the journal ring), and peak/total
// rollups in the run manifest. Two watchdogs ride on the same tick: a
// stall watchdog that captures a goroutine profile when no
// journal/progress activity happens for a configured window, and a soft
// memory watermark that journals mem_pressure and captures a heap profile
// when live heap crosses it. Everything here is observational:
// enabling the sampler never changes a computed float, and a disabled
// sampler costs nothing on the solve hot path (no goroutine, no atomics
// beyond the watchdog activity counter the journal already pays for).

// resourceMetricNames are the runtime/metrics series one sample reads, in
// the order the sampler's metrics.Sample buffer holds them.
var resourceMetricNames = []string{
	// Heap in use is /memory/classes/heap/objects (the HeapAlloc
	// equivalent), not /gc/heap/live: the latter reads zero until the
	// first GC cycle completes, which would blind the memory watermark for
	// a run's whole ramp-up.
	"/memory/classes/heap/objects:bytes",
	"/gc/heap/goal:bytes",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/sched/goroutines:goroutines",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

// Indices into resourceMetricNames / the sample buffer.
const (
	rmHeapLive = iota
	rmHeapGoal
	rmAllocBytes
	rmAllocObjects
	rmGoroutines
	rmGCCycles
	rmGCPauses
	rmGCCPU
	rmTotalCPU
	rmSchedLat
)

// ResourceSample is one sampler observation and the data of a
// resource_sample event, whose envelope carries TNS. Totals (alloc
// bytes/objects, GC cycles/pause) are process-lifetime cumulative, matching
// the runtime/metrics semantics; deltas belong to the reader.
type ResourceSample struct {
	// TNS is the sample wall-clock time in Unix nanoseconds.
	TNS int64 `json:"t_ns,omitempty"`
	// HeapLiveBytes is the heap occupied by objects (live plus
	// dead-not-yet-swept — the runtime's HeapAlloc); HeapGoalBytes is the
	// pacer's current target.
	HeapLiveBytes uint64 `json:"heap_live_bytes"`
	HeapGoalBytes uint64 `json:"heap_goal_bytes"`
	// TotalAllocBytes / TotalAllocObjects are cumulative allocation totals.
	TotalAllocBytes   uint64 `json:"total_alloc_bytes"`
	TotalAllocObjects uint64 `json:"total_alloc_objects"`
	Goroutines        int64  `json:"goroutines"`
	GCCycles          uint64 `json:"gc_cycles"`
	// GCPauseTotalNS approximates cumulative stop-the-world pause time from
	// the runtime's pause histogram (bucket-midpoint sum).
	GCPauseTotalNS int64 `json:"gc_pause_total_ns"`
	// GCCPUFraction is the cumulative fraction of available CPU time spent
	// in the garbage collector.
	GCCPUFraction float64 `json:"gc_cpu_fraction"`
	// SchedLatency percentiles (µs) of the goroutine run-queue wait
	// distribution, cumulative since process start.
	SchedLatencyP50US float64 `json:"sched_latency_p50_us"`
	SchedLatencyP99US float64 `json:"sched_latency_p99_us"`
}

// ResourceRollup is the run-level summary the manifest records: peaks and
// run-scoped totals (deltas between the first and last sample, so a
// manifest answers "what did *this run* allocate", not "what has this
// process ever allocated").
type ResourceRollup struct {
	Samples           int64   `json:"samples"`
	IntervalMS        int64   `json:"interval_ms"`
	PeakHeapLiveBytes uint64  `json:"peak_heap_live_bytes"`
	MaxGoroutines     int64   `json:"max_goroutines"`
	TotalAllocBytes   uint64  `json:"total_alloc_bytes"`
	TotalAllocObjects uint64  `json:"total_alloc_objects"`
	GCCycles          uint64  `json:"gc_cycles"`
	GCPauseTotalNS    int64   `json:"gc_pause_total_ns"`
	GCCPUFraction     float64 `json:"gc_cpu_fraction"`
	MemPressureEvents int64   `json:"mem_pressure_events,omitempty"`
	WatchdogStalls    int64   `json:"watchdog_stalls,omitempty"`
}

// ResourceConfig tunes ResourceSampler.Start. The sampler keeps only its
// rollup and its registry series: each sample is a resource_sample event,
// journaled whenever the default journal records.
type ResourceConfig struct {
	// Interval is the sampling cadence; <= 0 disables periodic sampling
	// unless a watchdog or profiler needs a tick, in which case it defaults
	// to DefaultResourceInterval.
	Interval time.Duration
	// MemSoftLimitBytes, when > 0, arms the soft memory watermark: live
	// heap at or above it journals mem_pressure and captures a heap
	// profile; the watchdog re-arms when live heap falls back under 90%.
	MemSoftLimitBytes uint64
	// StallTimeout, when > 0, arms the stall watchdog: no journal/progress
	// activity for this long journals watchdog_stall and captures a
	// goroutine profile; it re-arms on the next activity.
	StallTimeout time.Duration
	// ProfileDir, when set, enables continuous profiling: rotating CPU
	// profiles plus periodic heap profiles written under this directory
	// every 30s. Watchdog captures land here too (falling back to the
	// journal's directory, then to none, when unset).
	ProfileDir string
	// Artifact, when non-nil, is called for every file the sampler writes
	// (profiles, watchdog captures) so the run manifest can index them;
	// wired to RunInfo.SetArtifact by the flag layer.
	Artifact func(kind, path string)
}

// DefaultResourceInterval is the sampling cadence of a zero Interval.
const DefaultResourceInterval = 1 * time.Second

// profileInterval is the continuous-profile rotation cadence; a variable
// only so the rotation test can shorten it.
var profileInterval = 30 * time.Second

// activityCounter counts externally visible liveness: journal events and
// progress bumps. The stall watchdog watches it; a counter that stops
// moving means the process stopped doing observable work.
var activityCounter atomic.Int64

// noteActivity records one unit of observable liveness. Called from the
// journal emit and progress add paths — one atomic add, cheap enough for
// both.
func noteActivity() { activityCounter.Add(1) }

// Registry series the sampler maintains. Gauges carry the latest sample;
// counters carry cumulative totals (advanced by delta, staying monotonic).
var (
	telHeapLive    = GetGauge("mnsim_proc_heap_live_bytes")
	telHeapGoal    = GetGauge("mnsim_proc_heap_goal_bytes")
	telGoroutines  = GetGauge("mnsim_proc_goroutines")
	telGCFraction  = GetGauge("mnsim_proc_gc_cpu_fraction")
	telSchedP99    = GetGauge("mnsim_proc_sched_latency_p99_us")
	telAllocBytes  = GetCounter("mnsim_proc_alloc_bytes_total")
	telAllocObjs   = GetCounter("mnsim_proc_alloc_objects_total")
	telGCCycles    = GetCounter("mnsim_proc_gc_cycles_total")
	telGCPauseNS   = GetCounter("mnsim_proc_gc_pause_ns_total")
	telMemPressure = GetCounter("mnsim_proc_mem_pressure_total")
	telStalls      = GetCounter("mnsim_proc_watchdog_stalls_total")
)

// ResourceSampler owns the sampling goroutine and the run's rollup. The
// zero value is a stopped sampler; the package-level default instance
// backs /resources.json and the flag layer.
type ResourceSampler struct {
	mu      sync.Mutex
	cfg     ResourceConfig
	rollup  ResourceRollup
	first   *ResourceSample // baseline for run-scoped totals
	ran     bool
	running bool
	stop    chan struct{}
	done    chan struct{}

	// Sampling state, owned by the loop goroutine while running.
	buf []metrics.Sample
	// prev* are the last tick's cumulative counter values, for registry
	// deltas.
	prevAllocB, prevAllocO, prevCycles uint64
	prevPauseNS                        int64
	// Watchdog state.
	memArmed      bool
	lastActivity  int64
	lastChangeNS  int64
	stallArmed    bool
	captureSeq    int
	cpuProfile    *os.File
	cpuProfileSeq int
	lastProfileNS int64
}

var defaultResources = &ResourceSampler{}

// DefaultResourceSampler returns the process-wide sampler instance — the
// one the telemetry flags start and /resources.json serves.
func DefaultResourceSampler() *ResourceSampler { return defaultResources }

// Start launches the sampling loop; it runs until Stop or ctx
// cancellation, whichever comes first, and flushes one final sample on the
// way out. Starting a running sampler is an error.
func (s *ResourceSampler) Start(ctx context.Context, cfg ResourceConfig) error {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultResourceInterval
	}
	s.mu.Lock()
	if s.running {
		s.mu.Unlock()
		return fmt.Errorf("telemetry: resource sampler already running")
	}
	s.cfg = cfg
	s.rollup = ResourceRollup{IntervalMS: cfg.Interval.Milliseconds()}
	s.first = nil
	s.ran = true
	s.running = true
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	s.buf = make([]metrics.Sample, len(resourceMetricNames))
	for i, name := range resourceMetricNames {
		s.buf[i].Name = name
	}
	s.prevAllocB, s.prevAllocO, s.prevCycles, s.prevPauseNS = 0, 0, 0, 0
	s.memArmed = cfg.MemSoftLimitBytes > 0
	s.stallArmed = cfg.StallTimeout > 0
	s.lastActivity = activityCounter.Load()
	s.lastChangeNS = time.Now().UnixNano()
	s.captureSeq = 0
	s.cpuProfileSeq = 0
	s.lastProfileNS = s.lastChangeNS
	s.mu.Unlock()

	if cfg.ProfileDir != "" {
		if err := os.MkdirAll(cfg.ProfileDir, 0o755); err != nil {
			s.mu.Lock()
			s.running = false
			s.mu.Unlock()
			return fmt.Errorf("telemetry: profile dir: %w", err)
		}
		s.startCPUProfile()
	}
	// Sampling goroutine. Termination edges: loop selects on s.stop
	// (closed by Stop, which then joins on s.done) and on ctx.Done, so
	// cancelling the run context or stopping the sampler both end it.
	go s.loop(ctx)
	return nil
}

// Stop ends the sampling loop and waits for it to flush its final sample
// and exit; safe to call on a stopped (or never-started) sampler.
func (s *ResourceSampler) Stop() {
	s.mu.Lock()
	if !s.running {
		s.mu.Unlock()
		return
	}
	stop, done := s.stop, s.done
	s.mu.Unlock()
	close(stop)
	<-done
}

// loop is the sampling goroutine: one ticker drives sampling, both
// watchdogs, and profile rotation, so stopping the sampler stops
// everything and leaves no goroutines behind.
func (s *ResourceSampler) loop(ctx context.Context) {
	defer close(s.done)
	tick := time.NewTicker(s.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			s.finish()
			return
		case <-ctx.Done():
			s.finish()
			return
		case <-tick.C:
			s.tick(time.Now())
		}
	}
}

// finish takes the final sample, closes any open CPU profile, and marks
// the sampler stopped — the clean-shutdown flush the journal contract
// promises.
func (s *ResourceSampler) finish() {
	s.tick(time.Now())
	s.stopCPUProfile()
	if s.cfg.ProfileDir != "" {
		s.writeHeapProfile("heap", "profile_heap")
	}
	s.mu.Lock()
	s.running = false
	s.mu.Unlock()
}

// tick takes one sample, updates the registry and rollup, runs the
// watchdogs, and rotates profiles.
func (s *ResourceSampler) tick(now time.Time) {
	metrics.Read(s.buf)
	smp := ResourceSample{
		TNS:               now.UnixNano(),
		HeapLiveBytes:     s.buf[rmHeapLive].Value.Uint64(),
		HeapGoalBytes:     s.buf[rmHeapGoal].Value.Uint64(),
		TotalAllocBytes:   s.buf[rmAllocBytes].Value.Uint64(),
		TotalAllocObjects: s.buf[rmAllocObjects].Value.Uint64(),
		Goroutines:        int64(s.buf[rmGoroutines].Value.Uint64()),
		GCCycles:          s.buf[rmGCCycles].Value.Uint64(),
	}
	if h := s.buf[rmGCPauses].Value.Float64Histogram(); h != nil {
		smp.GCPauseTotalNS = int64(histogramSum(h) * 1e9)
	}
	gcCPU := s.buf[rmGCCPU].Value.Float64()
	totCPU := s.buf[rmTotalCPU].Value.Float64()
	if totCPU > 0 {
		smp.GCCPUFraction = gcCPU / totCPU
	}
	if h := s.buf[rmSchedLat].Value.Float64Histogram(); h != nil {
		smp.SchedLatencyP50US = histogramQuantile(h, 0.50) * 1e6
		smp.SchedLatencyP99US = histogramQuantile(h, 0.99) * 1e6
	}

	// Registry: gauges take the latest value, counters advance by delta so
	// they stay monotonic across sampler restarts.
	telHeapLive.Set(float64(smp.HeapLiveBytes))
	telHeapGoal.Set(float64(smp.HeapGoalBytes))
	telGoroutines.Set(float64(smp.Goroutines))
	telGCFraction.Set(smp.GCCPUFraction)
	telSchedP99.Set(smp.SchedLatencyP99US)
	telAllocBytes.Add(int64(smp.TotalAllocBytes - s.prevAllocB))
	telAllocObjs.Add(int64(smp.TotalAllocObjects - s.prevAllocO))
	telGCCycles.Add(int64(smp.GCCycles - s.prevCycles))
	telGCPauseNS.Add(smp.GCPauseTotalNS - s.prevPauseNS)
	s.prevAllocB, s.prevAllocO = smp.TotalAllocBytes, smp.TotalAllocObjects
	s.prevCycles, s.prevPauseNS = smp.GCCycles, smp.GCPauseTotalNS

	s.mu.Lock()
	if s.first == nil {
		f := smp
		s.first = &f
	}
	r := &s.rollup
	r.Samples++
	if smp.HeapLiveBytes > r.PeakHeapLiveBytes {
		r.PeakHeapLiveBytes = smp.HeapLiveBytes
	}
	if smp.Goroutines > r.MaxGoroutines {
		r.MaxGoroutines = smp.Goroutines
	}
	r.TotalAllocBytes = smp.TotalAllocBytes - s.first.TotalAllocBytes
	r.TotalAllocObjects = smp.TotalAllocObjects - s.first.TotalAllocObjects
	r.GCCycles = smp.GCCycles - s.first.GCCycles
	r.GCPauseTotalNS = smp.GCPauseTotalNS - s.first.GCPauseTotalNS
	r.GCCPUFraction = smp.GCCPUFraction
	s.mu.Unlock()

	if JournalOn() {
		// The envelope carries the time.
		ev := smp
		ev.TNS = 0
		ev.GCCPUFraction = jsonFiniteF(smp.GCCPUFraction)
		ev.SchedLatencyP50US = jsonFiniteF(smp.SchedLatencyP50US)
		ev.SchedLatencyP99US = jsonFiniteF(smp.SchedLatencyP99US)
		EmitEvent(EvResourceSample, "", &ev)
	}
	s.checkMemPressure(smp)
	s.checkStall(now, smp)
	s.rotateProfiles(now)
}

// MemPressureEvent is the data of a mem_pressure event: the live heap
// that crossed the soft limit, the limit, and the heap profile captured.
type MemPressureEvent struct {
	HeapLiveBytes uint64 `json:"heap_live_bytes"`
	LimitBytes    uint64 `json:"limit_bytes"`
	HeapProfile   string `json:"heap_profile"`
}

// checkMemPressure fires the soft memory watermark: one mem_pressure event
// plus one heap-profile capture per crossing, re-armed when live heap
// falls back under 90% of the limit (hysteresis, so a run hovering at the
// limit does not spam captures).
func (s *ResourceSampler) checkMemPressure(smp ResourceSample) {
	limit := s.cfg.MemSoftLimitBytes
	if limit == 0 {
		return
	}
	if !s.memArmed {
		if smp.HeapLiveBytes < limit-limit/10 {
			s.memArmed = true
		}
		return
	}
	if smp.HeapLiveBytes < limit {
		return
	}
	s.memArmed = false
	telMemPressure.Inc()
	s.mu.Lock()
	s.rollup.MemPressureEvents++
	s.mu.Unlock()
	path := s.writeHeapProfile("heap-pressure", "mem_pressure_heap_profile")
	Log().Warn("soft memory limit crossed",
		"heap_live_bytes", smp.HeapLiveBytes, "limit_bytes", limit, "heap_profile", path)
	if JournalOn() {
		EmitEvent(EvMemPressure, "", &MemPressureEvent{HeapLiveBytes: smp.HeapLiveBytes, LimitBytes: limit, HeapProfile: path})
	}
}

// WatchdogStallEvent is the data of a watchdog_stall event: how long the
// run was quiet, its goroutine count, and the goroutine profile captured.
type WatchdogStallEvent struct {
	QuietMS          int64  `json:"quiet_ms"`
	Goroutines       int64  `json:"goroutines"`
	GoroutineProfile string `json:"goroutine_profile"`
}

// checkStall fires the stall watchdog: when the activity counter has not
// moved for StallTimeout, capture a goroutine profile and journal
// watchdog_stall; re-arm on the next activity.
func (s *ResourceSampler) checkStall(now time.Time, smp ResourceSample) {
	if s.cfg.StallTimeout <= 0 {
		return
	}
	act := activityCounter.Load()
	if act != s.lastActivity {
		s.lastActivity = act
		s.lastChangeNS = now.UnixNano()
		s.stallArmed = true
		return
	}
	quiet := now.UnixNano() - s.lastChangeNS
	if !s.stallArmed || quiet < int64(s.cfg.StallTimeout) {
		return
	}
	s.stallArmed = false
	telStalls.Inc()
	s.mu.Lock()
	s.rollup.WatchdogStalls++
	s.mu.Unlock()
	path := s.writeGoroutineProfile()
	Log().Warn("stall watchdog fired: no journal/progress activity",
		"quiet", time.Duration(quiet), "goroutines", smp.Goroutines, "goroutine_profile", path)
	if JournalOn() {
		EmitEvent(EvWatchdogStall, "", &WatchdogStallEvent{QuietMS: quiet / 1e6, Goroutines: smp.Goroutines, GoroutineProfile: path})
	}
}

// rotateProfiles closes and restarts the continuous CPU profile and writes
// a heap profile every profileInterval.
func (s *ResourceSampler) rotateProfiles(now time.Time) {
	if s.cfg.ProfileDir == "" {
		return
	}
	if now.UnixNano()-s.lastProfileNS < int64(profileInterval) {
		return
	}
	s.lastProfileNS = now.UnixNano()
	s.stopCPUProfile()
	s.startCPUProfile()
	s.writeHeapProfile("heap", "profile_heap")
}

// captureDir resolves where watchdog/profile captures go: -profile-dir
// when set, else next to the journal file, else nowhere.
func (s *ResourceSampler) captureDir() string {
	if s.cfg.ProfileDir != "" {
		return s.cfg.ProfileDir
	}
	if p := defaultJournal.Path(); p != "" {
		return filepath.Dir(p)
	}
	return ""
}

// startCPUProfile begins the next rotating CPU profile segment. A failure
// (including another CPU profile already running, e.g. under go test
// -cpuprofile) is logged and skipped — profiling is best-effort.
func (s *ResourceSampler) startCPUProfile() {
	path := filepath.Join(s.cfg.ProfileDir, fmt.Sprintf("cpu-%03d.pprof", s.cpuProfileSeq))
	f, err := os.Create(path)
	if err != nil {
		Log().Warn("cpu profile create failed", "path", path, "err", err)
		return
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		Log().Warn("cpu profile start failed", "path", path, "err", err)
		_ = f.Close() // profile never started; nothing useful in the file
		_ = os.Remove(path)
		return
	}
	s.cpuProfile = f
	s.cpuProfileSeq++
}

// stopCPUProfile ends the current CPU profile segment and records it as an
// artifact.
func (s *ResourceSampler) stopCPUProfile() {
	if s.cpuProfile == nil {
		return
	}
	pprof.StopCPUProfile()
	path := s.cpuProfile.Name()
	if err := s.cpuProfile.Close(); err != nil {
		Log().Warn("cpu profile close failed", "path", path, "err", err)
	}
	s.cpuProfile = nil
	s.recordArtifact("profile_cpu", path)
}

// writeHeapProfile captures a heap profile into the capture directory and
// records it as an artifact of the given kind. Returns the path ("" when
// there is no capture directory or the write failed).
func (s *ResourceSampler) writeHeapProfile(prefix, artifactKind string) string {
	dir := s.captureDir()
	if dir == "" {
		return ""
	}
	s.captureSeq++
	path := filepath.Join(dir, fmt.Sprintf("%s-%03d.pprof", prefix, s.captureSeq))
	f, err := os.Create(path)
	if err != nil {
		Log().Warn("heap profile create failed", "path", path, "err", err)
		return ""
	}
	err = pprof.Lookup("heap").WriteTo(f, 0)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		Log().Warn("heap profile write failed", "path", path, "err", err)
		return ""
	}
	s.recordArtifact(artifactKind, path)
	return path
}

// writeGoroutineProfile captures a textual goroutine dump (pprof debug=1)
// into the capture directory.
func (s *ResourceSampler) writeGoroutineProfile() string {
	dir := s.captureDir()
	if dir == "" {
		return ""
	}
	s.captureSeq++
	path := filepath.Join(dir, fmt.Sprintf("goroutine-stall-%03d.pprof", s.captureSeq))
	f, err := os.Create(path)
	if err != nil {
		Log().Warn("goroutine profile create failed", "path", path, "err", err)
		return ""
	}
	err = pprof.Lookup("goroutine").WriteTo(f, 1)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		Log().Warn("goroutine profile write failed", "path", path, "err", err)
		return ""
	}
	s.recordArtifact("watchdog_goroutine_profile", path)
	return path
}

func (s *ResourceSampler) recordArtifact(kind, path string) {
	if s.cfg.Artifact != nil {
		s.cfg.Artifact(kind, path)
	}
}

// Rollup returns the run-level summary, or nil when the sampler never ran
// — the manifest omits the resources block entirely for unsampled runs.
func (s *ResourceSampler) Rollup() *ResourceRollup {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ran {
		return nil
	}
	r := s.rollup
	return &r
}

// resourcesJSON is the /resources.json payload.
type resourcesJSON struct {
	Enabled bool             `json:"enabled"`
	Rollup  *ResourceRollup  `json:"rollup,omitempty"`
	Samples []ResourceSample `json:"samples"`
}

// WriteJSON writes the sampler state and the resource_sample events in the
// default journal's ring (oldest first) — the /resources.json endpoint body.
func (s *ResourceSampler) WriteJSON(w io.Writer) error {
	s.mu.Lock()
	out := resourcesJSON{Enabled: s.running}
	if s.ran {
		r := s.rollup
		out.Rollup = &r
	}
	s.mu.Unlock()
	out.Samples = ResourceSamples(defaultJournal.ringEvents())
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// histogramSum approximates the total of a runtime/metrics histogram by
// summing count × bucket midpoint; the open-ended edge buckets use their
// finite boundary. Good to a bucket width — plenty for pause-time totals.
func histogramSum(h *metrics.Float64Histogram) float64 {
	sum := 0.0
	for i, count := range h.Counts {
		if count == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		var mid float64
		switch {
		case math.IsInf(lo, -1):
			mid = hi
		case math.IsInf(hi, +1):
			mid = lo
		default:
			mid = (lo + hi) / 2
		}
		sum += float64(count) * mid
	}
	return sum
}

// histogramQuantile returns the q-quantile of a runtime/metrics histogram
// by linear interpolation within the containing bucket.
func histogramQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if math.IsInf(lo, -1) {
				return hi
			}
			if math.IsInf(hi, +1) {
				return lo
			}
			frac := (target - cum) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum = next
	}
	// Fell off the end (rounding); return the highest finite edge.
	for i := len(h.Buckets) - 1; i >= 0; i-- {
		if !math.IsInf(h.Buckets[i], +1) {
			return h.Buckets[i]
		}
	}
	return 0
}

// jsonFiniteF clamps non-finite floats for JSON payloads (encoding/json
// rejects NaN/Inf).
func jsonFiniteF(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// ParseByteSize parses human-friendly byte sizes: a plain integer is
// bytes; suffixes KB/MB/GB (decimal, 1000-based) and KiB/MiB/GiB (binary,
// 1024-based) scale it, case-insensitively; "64M" means 64 MiB (the
// conventional shorthand). The empty string is 0. A size that is not a
// finite number of bytes below 2^64 is an error.
func ParseByteSize(s string) (uint64, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, nil
	}
	upper := strings.ToUpper(t)
	mult := uint64(1)
	for _, suf := range []struct {
		name string
		mult uint64
	}{
		{"KIB", 1 << 10}, {"MIB", 1 << 20}, {"GIB", 1 << 30},
		{"KB", 1000}, {"MB", 1000 * 1000}, {"GB", 1000 * 1000 * 1000},
		{"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30},
		{"B", 1},
	} {
		if strings.HasSuffix(upper, suf.name) {
			mult = suf.mult
			upper = strings.TrimSpace(strings.TrimSuffix(upper, suf.name))
			break
		}
	}
	n, err := strconv.ParseFloat(upper, 64)
	b := n * float64(mult)
	// The negated range check also rejects NaN.
	if err != nil || !(b >= 0 && b < 1<<64) {
		return 0, fmt.Errorf("telemetry: invalid byte size %q", s)
	}
	return uint64(b), nil
}

// FormatByteSize renders bytes human-readably (binary units), for tables.
func FormatByteSize(b uint64) string {
	const unit = 1024
	if b < unit {
		return fmt.Sprintf("%d B", b)
	}
	div, exp := uint64(unit), 0
	for n := b / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(b)/float64(div), "KMGTPE"[exp])
}
