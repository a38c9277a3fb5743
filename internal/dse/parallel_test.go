package dse

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"mnsim/internal/arch"
)

// stripEvalTime zeroes the wall-clock field so candidate lists can be
// compared across runs; EvalTime is the only nondeterministic field.
func stripEvalTime(cands []Candidate) []Candidate {
	out := make([]Candidate, len(cands))
	copy(out, cands)
	for i := range out {
		out[i].EvalTime = 0
	}
	return out
}

func TestExploreParallelDeterminism(t *testing.T) {
	base := baseDesign()
	want, err := Explore(context.Background(), base, largeLayer, smallSpace(), Options{ErrorLimit: 0.25, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref := stripEvalTime(want)
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		got, err := Explore(context.Background(), base, largeLayer, smallSpace(), Options{ErrorLimit: 0.25, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(stripEvalTime(got), ref) {
			t.Errorf("workers=%d: candidate list differs from sequential run", workers)
		}
	}
}

func TestExploreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Explore(ctx, baseDesign(), largeLayer, smallSpace(), Options{ErrorLimit: 0.25, Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestExploreToleratesEvalFailure verifies the sweep survives individual
// evaluation failures: the failing points are dropped (and counted), the
// rest of the grid is still returned.
func TestExploreToleratesEvalFailure(t *testing.T) {
	orig := evalCandidate
	defer func() { evalCandidate = orig }()
	evalCandidate = func(ctx context.Context, pl *arch.Plan, p int, a *arch.Accelerator) (arch.Report, error) {
		if pl.Design.CrossbarSize == 64 {
			return arch.Report{}, fmt.Errorf("injected failure")
		}
		return orig(ctx, pl, p, a)
	}
	cands, err := Explore(context.Background(), baseDesign(), largeLayer, smallSpace(), Options{ErrorLimit: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("sweep returned no candidates")
	}
	for _, c := range cands {
		if c.CrossbarSize == 64 {
			t.Fatalf("failing grid point (size 64) survived: %+v", c)
		}
	}
}

func TestExploreAllEvalFailed(t *testing.T) {
	orig := evalCandidate
	defer func() { evalCandidate = orig }()
	evalCandidate = func(ctx context.Context, pl *arch.Plan, p int, a *arch.Accelerator) (arch.Report, error) {
		return arch.Report{}, fmt.Errorf("injected failure")
	}
	_, err := Explore(context.Background(), baseDesign(), largeLayer, smallSpace(), Options{ErrorLimit: 0.25})
	if err == nil {
		t.Fatal("want error when every buildable design fails evaluation")
	}
}

// TestExploreEvalSpinNeutral: the synthetic per-candidate work must not
// change any evaluated result, only its cost.
func TestExploreEvalSpinNeutral(t *testing.T) {
	base := baseDesign()
	plain, err := Explore(context.Background(), base, largeLayer, smallSpace(), Options{ErrorLimit: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	spun, err := Explore(context.Background(), base, largeLayer, smallSpace(), Options{ErrorLimit: 0.25, EvalSpin: 5000, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripEvalTime(plain), stripEvalTime(spun)) {
		t.Error("EvalSpin changed the candidate list")
	}
}

// TestSpinDeterministic pins the busy-work mixer: same seed and rounds,
// same value — and it must actually depend on both.
func TestSpinDeterministic(t *testing.T) {
	if spin(42, 1000) != spin(42, 1000) {
		t.Error("spin is not deterministic")
	}
	if spin(42, 1000) == spin(43, 1000) {
		t.Error("spin ignores its seed")
	}
	if spin(42, 1000) == spin(42, 1001) {
		t.Error("spin ignores its round count")
	}
}

// BenchmarkExplore measures sweep scheduling. Evaluating one large-bank
// design takes ~0.13 µs on a 2-CPU Xeon once its run's plan is rebuilt (a
// VGG-16 design ~1–2 µs plus a 7–14 µs plan rebuild per run, see
// BenchmarkEvaluate in internal/arch), too little per candidate for the
// bare sweep to show pool scaling. Each worker reuses one plan and one
// accelerator and counts its candidate spans in a tally, so a sweep's
// allocations are a per-call constant, whatever its candidate count.
// EvalSpin injects a deterministic ~20 µs of integer mixing per candidate
// (the cost of a small circuit-level validation solve) which makes the
// workers=1 vs workers=4 comparison a real measurement of the pool; spin
// work never changes the results.
//
// allocs/op is exact, so the benchmark gate can hold it tightly: before
// the timed loop, one sweep makes the process-wide first-use allocations
// (the span aggregates' map entries, the logger), and warmGoroutines
// stocks the runtime's free goroutines.
func BenchmarkExplore(b *testing.B) {
	base := baseDesign()
	space := DefaultSpace()
	const spinRounds = 20000
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opt := Options{ErrorLimit: 0.25, Workers: workers, EvalSpin: spinRounds}
			if _, err := Explore(context.Background(), base, largeLayer, space, opt); err != nil {
				b.Fatal(err)
			}
			warmGoroutines()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cands, err := Explore(context.Background(), base, largeLayer, space, opt)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(len(cands)), "candidates/op")
				}
			}
		})
	}
}

// warmGoroutines starts and ends enough goroutines to stock the runtime's
// free lists. pool.Run starts its workers on every call, and the runtime
// reuses an exited goroutine only from the starting processor's free list
// or, once a processor's list overflows, the global one; until then a
// call allocates new goroutines as scheduling happens to leave those lists
// empty, and allocs/op counts them.
func warmGoroutines() {
	var wg sync.WaitGroup
	for i := 0; i < 512; i++ {
		wg.Add(1)
		go wg.Done()
	}
	wg.Wait()
}
