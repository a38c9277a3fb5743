package dse

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"testing"
	"time"

	"mnsim/internal/arch"
	"mnsim/internal/telemetry"
)

// TestExploreLiveProgress is the acceptance test for the live
// observability server: while a sweep is running, /events must hold the
// dse.candidates phase's start (total 9) and no finish yet, and some but
// not all of the sweep's candidate_eval events. The real evaluator finishes
// a small sweep in milliseconds — too fast to scrape reliably — so it is
// swapped for a slow stub via the evalCandidate package variable.
func TestExploreLiveProgress(t *testing.T) {
	saved := evalCandidate
	evalCandidate = func(ctx context.Context, pl *arch.Plan, p int, a *arch.Accelerator) (arch.Report, error) {
		select {
		case <-time.After(5 * time.Millisecond):
		case <-ctx.Done():
			return arch.Report{}, ctx.Err()
		}
		return saved(ctx, pl, p, a)
	}
	defer func() { evalCandidate = saved }()

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := telemetry.AddFlags(fs)
	if err := fs.Parse([]string{"-serve", "localhost:0"}); err != nil {
		t.Fatal(err)
	}
	// The ring is process-wide: start from an empty one, so that only this
	// sweep's events are seen.
	telemetry.DefaultJournal().Reset()
	if err := f.StartContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		f.Finish()
		telemetry.DefaultJournal().Reset()
	}()
	url := "http://" + f.Addr() + "/events"

	space := Space{
		CrossbarSizes: []int{32, 64, 128},
		Parallelisms:  []int{1, 4, 16},
		WireNodes:     []int{45},
	} // 9 grid points x ~5ms each, on 2 workers: ~20ms of sweep to observe
	done := make(chan error, 1)
	go func() {
		_, err := Explore(context.Background(), baseDesign(), largeLayer, space, Options{ErrorLimit: 0.25, Workers: 2})
		done <- err
	}()

	sawMidSweep := false
	deadline := time.Now().Add(10 * time.Second)
poll:
	for !sawMidSweep && time.Now().Before(deadline) {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			break poll
		default:
		}
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Events []telemetry.Event `json:"events"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("/events malformed: %v\n%s", err, body)
		}
		var started, finished bool
		evals := 0
		for _, ev := range doc.Events {
			switch {
			case ev.Type == telemetry.EvPhase && ev.ID == "dse.candidates":
				var pe telemetry.PhaseEvent
				if err := ev.Decode(&pe); err != nil {
					t.Fatal(err)
				}
				if pe.Total != 9 {
					t.Fatalf("phase total = %d, want 9", pe.Total)
				}
				started = started || pe.Action == "start"
				finished = finished || pe.Action == "finish"
			case ev.Type == telemetry.EvCandidateEval:
				evals++
			}
		}
		if started && !finished && evals > 0 && evals < 9 {
			sawMidSweep = true
		}
		time.Sleep(time.Millisecond)
	}
	if !sawMidSweep {
		t.Fatal("never observed a mid-sweep /events snapshot with the phase started and 0 < candidates < 9")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
