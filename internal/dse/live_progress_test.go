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
// observability server: while a sweep is running, /progress must report
// the dse.candidates phase with nonzero done, done < total, and a
// non-negative ETA. The real evaluator finishes a small sweep in
// milliseconds — too fast to scrape reliably — so it is swapped for a
// slow stub via the evalCandidate package variable.
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
	if err := f.StartContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer f.Finish()
	url := "http://" + f.Addr() + "/progress"

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

	type phase struct {
		Name       string  `json:"name"`
		Total      int64   `json:"total"`
		Done       int64   `json:"done"`
		Running    bool    `json:"running"`
		ETASeconds float64 `json:"eta_seconds"`
	}
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
			Phases []phase `json:"phases"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("/progress malformed: %v\n%s", err, body)
		}
		for _, p := range doc.Phases {
			if p.Name != "dse.candidates" || !p.Running {
				continue
			}
			if p.Total != 9 {
				t.Fatalf("phase total = %d, want 9", p.Total)
			}
			if p.Done > 0 && p.Done < p.Total && p.ETASeconds >= 0 {
				sawMidSweep = true
			}
		}
		time.Sleep(time.Millisecond)
	}
	if !sawMidSweep {
		t.Fatal("never observed a mid-sweep /progress snapshot with 0 < done < total and an ETA")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
