package telemetry

import (
	"strings"
	"sync"
	"testing"
)

// useRingJournal makes a ring-only journal the default for the test.
func useRingJournal(t *testing.T) *Journal {
	t.Helper()
	j := NewJournal(0)
	j.EnableRing()
	old := defaultJournal
	defaultJournal = j
	t.Cleanup(func() { defaultJournal = old })
	return j
}

// phaseEvents returns the phase events in j's ring, oldest first.
func phaseEvents(j *Journal) []Event {
	var out []Event
	for _, ev := range j.ringEvents() {
		if ev.Type == EvPhase {
			out = append(out, ev)
		}
	}
	return out
}

// A phase journals its start with the expected total and its finish with
// the items done, the total and the elapsed time, once.
func TestPhaseLifecycle(t *testing.T) {
	j := useRingJournal(t)
	p := StartPhase("test.items", 10)
	for range 4 {
		p.Inc()
	}
	p.Finish()
	p.Finish()
	u := StartPhase("test.unknown", 0)
	u.Finish()

	evs := phaseEvents(j)
	if len(evs) != 4 {
		t.Fatalf("%d phase events, want 4 (start and finish of each phase)", len(evs))
	}
	for i, want := range []struct{ id, prefix string }{
		{"test.items", `{"action":"start","total":10}`},
		{"test.items", `{"action":"finish","done":4,"total":10,"elapsed_ns":`},
		{"test.unknown", `{"action":"start","total":0}`},
		{"test.unknown", `{"action":"finish","done":0,"total":0,"elapsed_ns":`},
	} {
		if evs[i].ID != want.id || !strings.HasPrefix(string(evs[i].Data), want.prefix) {
			t.Errorf("event %d = %s %s, want %s %s…", i, evs[i].ID, evs[i].Data, want.id, want.prefix)
		}
	}
	var fin PhaseEvent
	if err := evs[1].Decode(&fin); err != nil || fin.ElapsedNS == nil || *fin.ElapsedNS < 0 {
		t.Fatalf("finish payload %+v (%v)", fin, err)
	}
}

// A nil phase takes Inc and Finish and journals nothing.
func TestNilPhaseSafe(t *testing.T) {
	j := useRingJournal(t)
	var p *Phase
	p.Inc()
	p.Finish()
	if evs := phaseEvents(j); len(evs) != 0 {
		t.Fatalf("nil phase journaled %d events", len(evs))
	}
}

// TestPhaseConcurrent bumps one phase from many goroutines while the ring
// is read, then finishes it from many: run with -race (CI does) to verify
// the counters are data-race free. Exactly one finish is journaled, with
// every item counted.
func TestPhaseConcurrent(t *testing.T) {
	j := useRingJournal(t)
	p := StartPhase("race", 8000)
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 1000 {
				p.Inc()
			}
		}()
	}
	stop := make(chan struct{})
	read := make(chan struct{})
	go func() {
		defer close(read)
		for {
			select {
			case <-stop:
				return
			default:
				phaseEvents(j)
			}
		}
	}()
	wg.Wait()
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Finish()
		}()
	}
	wg.Wait()
	close(stop)
	<-read
	evs := phaseEvents(j)
	if len(evs) != 2 {
		t.Fatalf("%d phase events, want one start and one finish", len(evs))
	}
	var fin PhaseEvent
	if err := evs[1].Decode(&fin); err != nil || fin.Action != "finish" || fin.Done == nil || *fin.Done != 8000 {
		t.Fatalf("finish payload %+v (%v), want done 8000", fin, err)
	}
}
