package validate

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"testing"
	"time"

	"mnsim/internal/telemetry"
)

// The Table II validation contract: every behaviour-level estimate lands
// within 10% of the circuit-level measurement (the paper reports all rows
// under 10%), and the accuracy-model error stays under 1%.
func TestTableIIWithinTenPercent(t *testing.T) {
	if testing.Short() {
		t.Skip("circuit-level validation is slow")
	}
	// A reduced sample count keeps the test fast; the cmd tool and bench
	// run the paper's full 20×100 sampling.
	rows, err := TableII(TableIIOptions{WeightSamples: 3, InputSamples: 9, Size: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Model <= 0 || r.Circuit <= 0 {
			t.Errorf("%s: non-positive values %v / %v", r.Metric, r.Model, r.Circuit)
		}
		limit := 0.10
		if r.Metric == "Average Relative Accuracy" {
			limit = 0.01
		}
		if e := math.Abs(r.Error()); e > limit {
			t.Errorf("%s: model %v vs circuit %v (error %.1f%%, limit %.0f%%)",
				r.Metric, r.Model, r.Circuit, e*100, limit*100)
		}
	}
}

func TestRowError(t *testing.T) {
	r := Row{Metric: "x", Model: 11, Circuit: 10}
	if math.Abs(r.Error()-0.1) > 1e-12 {
		t.Fatalf("Error = %v", r.Error())
	}
	zero := Row{Metric: "z", Model: 1, Circuit: 0}
	if zero.Error() != 0 {
		t.Fatal("zero circuit should yield zero error")
	}
}

// Table III: the behaviour-level model must beat the circuit solver by
// orders of magnitude, and the gap must widen with crossbar size.
func TestTableIIISpeedUp(t *testing.T) {
	if testing.Short() {
		t.Skip("circuit-level timing is slow")
	}
	rows, err := TableIII([]int{16, 32, 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.SpeedUp < 100 {
			t.Errorf("size %d: speed-up %.0fx below 100x", r.Size, r.SpeedUp)
		}
	}
	if rows[2].CircuitTime <= rows[0].CircuitTime {
		t.Error("circuit time should grow with size")
	}
}

// Fig. 5: the model curve tracks the circuit scatter with RMSE < 0.01 and
// both grow with wire resistance.
func TestFig5Fit(t *testing.T) {
	if testing.Short() {
		t.Skip("circuit-level sweep is slow")
	}
	pts, err := Fig5([]int{16, 32, 64}, []int{45, 22})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("got %d points", len(pts))
	}
	var sumSq float64
	for _, p := range pts {
		d := p.Model - p.Circuit
		sumSq += d * d
	}
	rmse := math.Sqrt(sumSq / float64(len(pts)))
	if rmse >= 0.01 {
		t.Fatalf("RMSE %.4f, want < 0.01", rmse)
	}
	// At fixed size, the thinner 22nm wires must hurt more.
	byNode := map[int]float64{}
	for _, p := range pts {
		if p.Size == 64 {
			byNode[p.WireNode] = p.Circuit
		}
	}
	if byNode[22] <= byNode[45] {
		t.Errorf("22nm error %v should exceed 45nm %v", byNode[22], byNode[45])
	}
}

func TestFig5UnknownNode(t *testing.T) {
	if _, err := Fig5([]int{8}, []int{77}); err == nil {
		t.Fatal("unknown node accepted")
	}
}

// The rows are bit-identical at every worker count: the inputs are drawn
// before the fan-out and the powers are summed in sequential order.
func TestTableIIParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("circuit-level validation is slow")
	}
	for _, seed := range []int64{1, 7} {
		var want []Row
		for _, workers := range []int{1, 2, 8} {
			rows, err := TableII(TableIIOptions{WeightSamples: 3, InputSamples: 6, Size: 32, Seed: seed, Workers: workers})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if want == nil {
				want = rows
				continue
			}
			for i, r := range rows {
				w := want[i]
				if r.Metric != w.Metric ||
					math.Float64bits(r.Model) != math.Float64bits(w.Model) ||
					math.Float64bits(r.Circuit) != math.Float64bits(w.Circuit) {
					t.Errorf("seed %d workers %d: %+v, workers 1 gave %+v", seed, workers, r, w)
				}
			}
		}
	}
}

// Cancelling mid-run aborts every in-flight task, the transient included,
// and the run returns promptly with the cancellation as its cause.
func TestTableIICancel(t *testing.T) {
	if testing.Short() {
		t.Skip("circuit-level validation is slow")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const after, grace = 100 * time.Millisecond, 3 * time.Second
	start := time.Now()
	time.AfterFunc(after, cancel)
	// Uncancelled, this run takes well over a minute.
	_, err := TableIIContext(ctx, TableIIOptions{WeightSamples: 20, InputSamples: 4000, Size: 128, Seed: 1, Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want an error wrapping context.Canceled, got %v", err)
	}
	if took := time.Since(start); took > after+grace {
		t.Errorf("returned %v after the cancel", took-after)
	}
}

// A recorded Table II run at the benchmark's table2 configuration (Size
// 64, 4 weight samples × 12 inputs), journaled as
// `mnsim-validate -journal` runs it, records each circuit solve as one
// solve_end event and nothing else per solve: no solve_start, no
// newton_iter. Each span is one "span" event, the only record kept of it.
// The event mix is pinned at seed 5.
func TestTableIIRecordedEventMix(t *testing.T) {
	if testing.Short() {
		t.Skip("circuit-level validation is slow")
	}
	j := telemetry.DefaultJournal()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := j.Open(path); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		telemetry.DefaultTracer().ResetTraceEvents()
		j.Close()
		j.Reset()
	})
	if _, err := TableII(TableIIOptions{WeightSamples: 4, InputSamples: 12, Size: 64, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := telemetry.ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	byType := map[telemetry.EventType]int{}
	for _, ev := range events {
		byType[ev.Type]++
	}
	t.Logf("%d events: %v", len(events), byType)
	if byType["solve_start"] != 0 || byType["newton_iter"] != 0 {
		t.Errorf("retired per-solve events journaled: %v", byType)
	}
	if got := byType[telemetry.EvSolveEnd]; got != 28 {
		t.Errorf("%d solve_end events, want one per circuit solve: 28", got)
	}
	if len(events) != 131 {
		t.Errorf("%d journal events, want 131", len(events))
	}
}
