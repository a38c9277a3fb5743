package validate

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"runtime"
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
	rows, err := TableIIIContext(context.Background(), []int{16, 32, 64}, 1)
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
	pts, err := Fig5Context(context.Background(), []int{16, 32, 64}, []int{45, 22}, 0)
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
	if _, err := Fig5Context(context.Background(), []int{8}, []int{77}, 0); err == nil {
		t.Fatal("unknown node accepted")
	}
}

// The rows are bit-identical at every worker count: the inputs are drawn
// before the fan-out and the powers are summed in sequential order. Each
// pool worker solves through one SolverState, so how the transient and
// the weight streams share states depends on the worker count: at Size 64
// with 6 tasks, 6 workers give each task a state of its own and 1 worker
// one state for all.
func TestTableIIParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("circuit-level validation is slow")
	}
	for _, tc := range []struct {
		opt     TableIIOptions
		workers []int
	}{
		{TableIIOptions{WeightSamples: 3, InputSamples: 6, Size: 32, Seed: 1}, []int{1, 2, 8}},
		{TableIIOptions{WeightSamples: 3, InputSamples: 6, Size: 32, Seed: 7}, []int{1, 2, 8}},
		{TableIIOptions{WeightSamples: 4, InputSamples: 12, Size: 64, Seed: 3}, []int{1, 2, 3, 6}},
	} {
		var want []Row
		for _, workers := range tc.workers {
			opt := tc.opt
			opt.Workers = workers
			rows, err := TableII(opt)
			if err != nil {
				t.Fatalf("%+v: %v", opt, err)
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
					t.Errorf("%+v: %+v, workers 1 gave %+v", opt, r, w)
				}
			}
		}
	}
}

// tableIIBytes returns the bytes one TableII call with opt allocates,
// after a first call that warms up what the process keeps.
func tableIIBytes(t *testing.T, opt TableIIOptions) uint64 {
	t.Helper()
	if _, err := TableII(opt); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := TableII(opt); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A Table II run at Size 64 on one worker holds one solver buffer set
// (about 10 vectors of 2·64·64 floats, 64 KiB each), its drawn inputs
// (about 3 vectors), the JPEG network's stateless solves and each solve's
// result and diagnostics: it reads ~1.6 MB, 24.5 vectors, bounded at 26.
// A stored operator diagonal or a right-hand side apart from CG's residual
// buffer (26.5 vectors either), a transient with buffers of its own
// (+7.6 vectors), a buffer set per weight stream or a copied operating
// point per solve (6.3 MB, 97 vectors, before the worker states) fails the
// bound. Doubling the weight
// samples at 3 inputs each adds the new samples' drawn inputs (a 64×64
// resistance matrix is half a vector) and their solves' results, not
// solver buffers: under one vector per added sample.
func TestTableIIFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("circuit-level validation is slow")
	}
	const size = 64
	vec := uint64(16 * size * size)
	four := tableIIBytes(t, TableIIOptions{WeightSamples: 4, InputSamples: 12, Size: size, Seed: 1, Workers: 1})
	if bound := 26 * vec; four > bound {
		t.Errorf("Table II at Size %d allocates %d B, bound %d (%.1f vectors)", size, four, bound, float64(four)/float64(vec))
	}
	eight := tableIIBytes(t, TableIIOptions{WeightSamples: 8, InputSamples: 24, Size: size, Seed: 1, Workers: 1})
	perSample := (float64(eight) - float64(four)) / 4
	if perSample > float64(vec) {
		t.Errorf("each added weight sample allocates %.0f B (%.2f vectors), bound one vector (%d B)", perSample, perSample/float64(vec), vec)
	}
	t.Logf("Size %d, workers 1: %d B (%.1f vectors); %.0f B per added weight sample", size, four, float64(four)/float64(vec), perSample)
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
// newton_iter. Each span is one "span" event, the only record kept of it,
// the settling run's circuit.settle span among them. The event mix is
// pinned at seed 5.
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
	if len(events) != 132 {
		t.Errorf("%d journal events, want 132", len(events))
	}
}
