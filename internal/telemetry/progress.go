package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Progress tracking: named phases with total/done counters, a rolling
// completion rate, and an ETA. A sweep engine opens a phase
// (StartPhase("dse.candidates", n)), bumps it once per finished work item
// (Phase.Inc, lock-free), and Finish-es it when done; the /progress
// endpoint and the -progress stderr line render the tracker's snapshot
// while the sweep is still running.

const (
	// progressSamples is how many rolling-rate samples a phase takes over
	// its total: one each time its done count crosses a multiple of
	// total/progressSamples (of progressSamples items when the total is
	// unknown). A sample is one clock read; every other item costs the
	// phase an atomic add and a division. The phase keeps the latest
	// progressSamples samples in fixed storage.
	progressSamples = 64
	// progressWindow is how far back the rolling rate looks. Older samples
	// are dropped, so the ETA tracks the *current* throughput rather than
	// averaging over a slow warm-up.
	progressWindow = 10 * time.Second
)

// progressSample is one (time, cumulative done) observation.
type progressSample struct {
	atNS int64
	done int64
}

// Phase is one named unit of tracked work. All methods are safe for
// concurrent use and are no-ops on a nil receiver.
type Phase struct {
	name  string
	start time.Time

	total atomic.Int64
	done  atomic.Int64
	endNS atomic.Int64 // unix nanos of Finish; 0 while running
	step  atomic.Int64 // done-count interval between samples

	mu      sync.Mutex
	samples [progressSamples]progressSample // a ring, oldest at taken%progressSamples once full
	taken   int
}

// sampleStep is the done-count interval between a phase's rate samples.
func sampleStep(total int64) int64 {
	if total <= 0 {
		return progressSamples
	}
	return max(total/progressSamples, 1)
}

// Name returns the phase name.
func (p *Phase) Name() string {
	if p == nil {
		return ""
	}
	return p.name
}

// SetTotal replaces the expected work-item count (<= 0 means unknown).
func (p *Phase) SetTotal(n int64) {
	if p != nil {
		p.total.Store(n)
		p.step.Store(sampleStep(n))
	}
}

// Inc marks one work item done.
func (p *Phase) Inc() { p.Add(1) }

// Add marks n work items done (n <= 0 is ignored).
func (p *Phase) Add(n int64) {
	if p == nil || n <= 0 {
		return
	}
	// Progress bumps count as liveness for the stall watchdog, so an
	// unjournaled sweep still re-arms it.
	noteActivity()
	done := p.done.Add(n)
	if step := p.step.Load(); (done-n)/step == done/step {
		return
	}
	now := time.Now().UnixNano()
	p.mu.Lock()
	p.samples[p.taken%progressSamples] = progressSample{atNS: now, done: done}
	p.taken++
	p.mu.Unlock()
}

// PhaseEvent is the data of the phase events a Phase writes: "start" with
// the expected total, and "finish" with the items done, the total and the
// elapsed time.
type PhaseEvent struct {
	Action    string `json:"action"`
	Done      *int64 `json:"done,omitempty"`
	Total     int64  `json:"total"`
	ElapsedNS *int64 `json:"elapsed_ns,omitempty"`
}

// Finish marks the phase complete; repeated calls keep the first end time.
func (p *Phase) Finish() {
	if p == nil {
		return
	}
	now := time.Now().UnixNano()
	if !p.endNS.CompareAndSwap(0, now) {
		return
	}
	if JournalOn() {
		done, elapsed := p.done.Load(), now-p.start.UnixNano()
		EmitEvent(EvPhase, p.name, &PhaseEvent{Action: "finish", Done: &done, Total: p.total.Load(), ElapsedNS: &elapsed})
	}
}

// PhaseStatus is the exported snapshot of one phase.
type PhaseStatus struct {
	Name     string  `json:"name"`
	Total    int64   `json:"total"` // <= 0: unknown
	Done     int64   `json:"done"`
	Running  bool    `json:"running"`
	Fraction float64 `json:"fraction"` // 0 when total unknown
	// RatePerSec is the rolling completion rate over the last few seconds
	// (falling back to the whole-phase average early on).
	RatePerSec float64 `json:"rate_per_sec"`
	// ETASeconds is the projected remaining wall time; -1 when unknown
	// (no total, or no throughput yet), 0 once the phase has finished.
	ETASeconds     float64 `json:"eta_seconds"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

// Status returns the phase's snapshot at time now (pass time.Now()).
func (p *Phase) Status(now time.Time) PhaseStatus {
	if p == nil {
		return PhaseStatus{}
	}
	st := PhaseStatus{
		Name:       p.name,
		Total:      p.total.Load(),
		Done:       p.done.Load(),
		ETASeconds: -1,
	}
	end := p.endNS.Load()
	st.Running = end == 0
	if !st.Running {
		now = time.Unix(0, end)
	}
	st.ElapsedSeconds = now.Sub(p.start).Seconds()
	if st.ElapsedSeconds < 0 {
		st.ElapsedSeconds = 0
	}
	if st.Total > 0 {
		st.Fraction = float64(st.Done) / float64(st.Total)
	}
	// Copy the ring out oldest first, then drop the samples older than the
	// window, keeping the newest.
	var buf [progressSamples]progressSample
	p.mu.Lock()
	k := min(p.taken, progressSamples)
	for i := range buf[:k] {
		buf[i] = p.samples[(p.taken-k+i)%progressSamples]
	}
	p.mu.Unlock()
	samples := buf[:k]
	for cut := now.UnixNano() - int64(progressWindow); len(samples) > 1 && samples[0].atNS < cut; {
		samples = samples[1:]
	}
	st.RatePerSec = rollingRate(samples, now.UnixNano(), st.Done, st.ElapsedSeconds)
	switch {
	case !st.Running:
		st.ETASeconds = 0
	case st.Total > 0 && st.RatePerSec > 0:
		remaining := st.Total - st.Done
		if remaining < 0 {
			remaining = 0
		}
		st.ETASeconds = float64(remaining) / st.RatePerSec
	}
	return st
}

// rollingRate computes items/second from the oldest retained sample to
// now, falling back to the whole-phase average (done/elapsed) when no
// usable sample exists. Pure so the ETA math is unit-testable without
// sleeping.
func rollingRate(samples []progressSample, nowNS, done int64, elapsedSec float64) float64 {
	if len(samples) > 0 {
		s := samples[0]
		dt := float64(nowNS-s.atNS) / float64(time.Second)
		dd := done - s.done
		if dt > 0 && dd > 0 {
			return float64(dd) / dt
		}
	}
	if elapsedSec > 0 && done > 0 {
		return float64(done) / elapsedSec
	}
	return 0
}

// ProgressTracker is a registry of named phases in start order. Starting a
// phase under an existing name replaces it (a fresh sweep restarts its
// counters); finished phases stay visible so a post-run scrape still shows
// what ran.
type ProgressTracker struct {
	mu     sync.Mutex
	order  []string
	phases map[string]*Phase
}

// NewProgressTracker returns an empty tracker.
func NewProgressTracker() *ProgressTracker {
	return &ProgressTracker{phases: map[string]*Phase{}}
}

// defaultProgress is the process-wide tracker the instrumented sweep
// engines and the observability server share.
var defaultProgress = NewProgressTracker()

// Progress returns the process-wide progress tracker.
func Progress() *ProgressTracker { return defaultProgress }

// StartPhase registers (or restarts) the named phase expecting total work
// items (<= 0: unknown).
func (t *ProgressTracker) StartPhase(name string, total int64) *Phase {
	p := &Phase{name: name, start: time.Now()}
	p.SetTotal(total)
	t.mu.Lock()
	if _, ok := t.phases[name]; !ok {
		t.order = append(t.order, name)
	}
	t.phases[name] = p
	t.mu.Unlock()
	if JournalOn() {
		EmitEvent(EvPhase, name, &PhaseEvent{Action: "start", Total: total})
	}
	return p
}

// StartPhase registers (or restarts) a phase on the process-wide tracker.
func StartPhase(name string, total int64) *Phase {
	return defaultProgress.StartPhase(name, total)
}

// Statuses snapshots every phase in start order.
func (t *ProgressTracker) Statuses() []PhaseStatus {
	now := time.Now()
	t.mu.Lock()
	phases := make([]*Phase, 0, len(t.order))
	for _, name := range t.order {
		phases = append(phases, t.phases[name])
	}
	t.mu.Unlock()
	out := make([]PhaseStatus, len(phases))
	for i, p := range phases {
		out[i] = p.Status(now)
	}
	return out
}

// Reset drops every phase; intended for tests.
func (t *ProgressTracker) Reset() {
	t.mu.Lock()
	t.order, t.phases = nil, map[string]*Phase{}
	t.mu.Unlock()
}

// WriteJSON writes the tracker snapshot as {"phases": [...]}.
func (t *ProgressTracker) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Phases []PhaseStatus `json:"phases"`
	}{Phases: t.Statuses()})
}

// FormatStatusLine renders phase snapshots as the one-line summary the
// -progress flag prints to stderr: running phases joined by " | ", e.g.
// "dse.candidates 123/405 30% 1234/s eta 2.1s". Returns "" when nothing
// is running.
func FormatStatusLine(phases []PhaseStatus) string {
	line := ""
	for _, st := range phases {
		if !st.Running {
			continue
		}
		if line != "" {
			line += " | "
		}
		line += formatPhase(st)
	}
	return line
}

func formatPhase(st PhaseStatus) string {
	s := st.Name + " " + strconv.FormatInt(st.Done, 10)
	if st.Total > 0 {
		s += "/" + strconv.FormatInt(st.Total, 10) +
			" " + strconv.FormatFloat(math.Floor(st.Fraction*100), 'f', 0, 64) + "%"
	}
	if st.RatePerSec > 0 {
		s += " " + formatRate(st.RatePerSec) + "/s"
	}
	if st.ETASeconds >= 0 && st.Total > 0 {
		s += " eta " + formatETA(st.ETASeconds)
	}
	return s
}

func formatRate(r float64) string {
	switch {
	case r >= 1e6:
		return strconv.FormatFloat(r/1e6, 'f', 1, 64) + "M"
	case r >= 1e3:
		return strconv.FormatFloat(r/1e3, 'f', 1, 64) + "k"
	case r >= 10:
		return strconv.FormatFloat(r, 'f', 0, 64)
	default:
		return strconv.FormatFloat(r, 'f', 1, 64)
	}
}

func formatETA(sec float64) string {
	d := time.Duration(sec * float64(time.Second))
	switch {
	case d >= time.Hour:
		return d.Round(time.Minute).String()
	case d >= time.Minute:
		return d.Round(time.Second).String()
	default:
		return d.Round(100 * time.Millisecond).String()
	}
}
