package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPhaseLifecycle(t *testing.T) {
	tr := NewProgressTracker()
	p := tr.StartPhase("test.items", 10)
	p.Add(3)
	p.Inc()
	st := p.Status(time.Now())
	if st.Name != "test.items" || st.Done != 4 || st.Total != 10 {
		t.Fatalf("status = %+v", st)
	}
	if !st.Running {
		t.Fatal("phase should be running")
	}
	if st.Fraction < 0.39 || st.Fraction > 0.41 {
		t.Fatalf("fraction = %g, want 0.4", st.Fraction)
	}
	// done > 0 and elapsed > 0 imply a fallback overall rate, hence an ETA.
	time.Sleep(time.Millisecond)
	st = p.Status(time.Now())
	if st.RatePerSec <= 0 {
		t.Fatalf("rate = %g, want > 0", st.RatePerSec)
	}
	if st.ETASeconds < 0 {
		t.Fatalf("eta = %g, want >= 0 mid-phase", st.ETASeconds)
	}
	p.Finish()
	end1 := p.Status(time.Now())
	if end1.Running {
		t.Fatal("phase still running after Finish")
	}
	if end1.ETASeconds != 0 {
		t.Fatalf("finished eta = %g, want 0", end1.ETASeconds)
	}
	time.Sleep(2 * time.Millisecond)
	end2 := p.Status(time.Now())
	if end2.ElapsedSeconds != end1.ElapsedSeconds {
		t.Fatal("elapsed kept growing after Finish")
	}
}

func TestPhaseRestartReplaces(t *testing.T) {
	tr := NewProgressTracker()
	p1 := tr.StartPhase("sweep", 5)
	p1.Add(5)
	p1.Finish()
	tr.StartPhase("sweep", 7)
	sts := tr.Statuses()
	if len(sts) != 1 {
		t.Fatalf("got %d phases, want 1", len(sts))
	}
	if sts[0].Done != 0 || sts[0].Total != 7 || !sts[0].Running {
		t.Fatalf("restarted phase = %+v", sts[0])
	}
}

// TestPhaseSamplesAtCountBoundaries: a phase takes one rate sample each
// time its done count crosses a multiple of total/64, into fixed storage,
// so an Inc between samples reads no clock and no Inc allocates.
func TestPhaseSamplesAtCountBoundaries(t *testing.T) {
	tr := NewProgressTracker()
	p := tr.StartPhase("test.items", 6400)
	for i := 0; i < 6400; i++ {
		p.Inc()
	}
	if p.taken != progressSamples {
		t.Fatalf("%d samples over the total, want %d", p.taken, progressSamples)
	}
	for i, s := range p.samples {
		if want := int64(100 * (i + 1)); s.done != want {
			t.Fatalf("sample %d at done %d, want %d", i, s.done, want)
		}
	}
	// One Add crossing three boundaries takes one sample; an overshoot
	// past the total overwrites the oldest.
	p.Add(300)
	if p.taken != progressSamples+1 || p.samples[0].done != 6700 {
		t.Fatalf("after Add(300): %d samples, slot 0 at done %d", p.taken, p.samples[0].done)
	}
	if allocs := testing.AllocsPerRun(1000, p.Inc); allocs != 0 {
		t.Fatalf("Inc allocates %v times", allocs)
	}
	// With no total a phase samples every 64 items.
	u := tr.StartPhase("test.unknown", 0)
	u.Add(1000)
	for i := 0; i < 1000; i++ {
		u.Inc()
	}
	if want := 1 + 2000/progressSamples - 1000/progressSamples; u.taken != want {
		t.Fatalf("unknown total: %d samples, want %d", u.taken, want)
	}
}

func TestRollingRate(t *testing.T) {
	now := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC).UnixNano()
	sec := int64(time.Second)
	// 100 items in the 4s since the oldest sample -> 25/s.
	samples := []progressSample{{atNS: now - 4*sec, done: 100}}
	if r := rollingRate(samples, now, 200, 60); r != 25 {
		t.Fatalf("rolling rate = %g, want 25", r)
	}
	// No samples: fall back to done/elapsed.
	if r := rollingRate(nil, now, 30, 10); r != 3 {
		t.Fatalf("fallback rate = %g, want 3", r)
	}
	// Zero progress since the sample: fall back to the overall average.
	samples = []progressSample{{atNS: now - sec, done: 50}}
	if r := rollingRate(samples, now, 50, 10); r != 5 {
		t.Fatalf("stalled rate = %g, want overall 5", r)
	}
	if r := rollingRate(nil, now, 0, 10); r != 0 {
		t.Fatalf("empty rate = %g, want 0", r)
	}
}

func TestProgressWriteJSON(t *testing.T) {
	tr := NewProgressTracker()
	p := tr.StartPhase("dse.candidates", 405)
	p.Add(123)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Phases []PhaseStatus `json:"phases"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("progress JSON malformed: %v\n%s", err, buf.String())
	}
	if len(doc.Phases) != 1 || doc.Phases[0].Done != 123 || doc.Phases[0].Total != 405 {
		t.Fatalf("progress doc = %+v", doc)
	}
}

func TestFormatStatusLine(t *testing.T) {
	line := FormatStatusLine([]PhaseStatus{
		{Name: "dse.candidates", Total: 405, Done: 123, Running: true,
			Fraction: 123.0 / 405, RatePerSec: 1234, ETASeconds: 2.1},
		{Name: "done.phase", Total: 10, Done: 10, Running: false},
	})
	for _, want := range []string{"dse.candidates", "123/405", "30%", "1.2k/s", "eta"} {
		if !strings.Contains(line, want) {
			t.Errorf("line %q missing %q", line, want)
		}
	}
	if strings.Contains(line, "done.phase") {
		t.Errorf("line %q shows a finished phase", line)
	}
	if FormatStatusLine(nil) != "" {
		t.Error("empty snapshot should render to empty line")
	}
}

func TestNilPhaseSafe(t *testing.T) {
	var p *Phase
	p.Inc()
	p.Add(3)
	p.SetTotal(5)
	p.Finish()
	if p.Name() != "" {
		t.Fatal("nil name")
	}
	_ = p.Status(time.Now())
}

// TestPhaseConcurrent exercises the Inc/Status paths from many goroutines;
// run with -race (CI does) to verify the counters are data-race free.
func TestPhaseConcurrent(t *testing.T) {
	tr := NewProgressTracker()
	p := tr.StartPhase("race", 10000)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				p.Inc()
			}
		}()
	}
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				tr.Statuses()
			}
		}
	}()
	wg.Wait()
	close(stop)
	if got := p.Status(time.Now()).Done; got != 8000 {
		t.Fatalf("done = %d, want 8000", got)
	}
}
