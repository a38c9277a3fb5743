package accuracy

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
)

func TestMonteCarloBasics(t *testing.T) {
	p := refParams(64, 45)
	res, err := MonteCarlo(p, MCOptions{Trials: 500, Sigma: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 500 {
		t.Fatalf("trials = %d", res.Trials)
	}
	if res.Mean <= 0 || res.Std < 0 {
		t.Fatalf("stats: %+v", res)
	}
	// Percentiles are ordered.
	if !(res.P50 <= res.P95 && res.P95 <= res.P99 && res.P99 <= res.Max) {
		t.Fatalf("percentiles out of order: %+v", res)
	}
}

// The sampled distribution must sit between the closed-form average and the
// adversarial worst case.
func TestMonteCarloBracketedByModel(t *testing.T) {
	p := refParams(64, 45)
	model, err := Eval(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MonteCarlo(p, MCOptions{Trials: 2000, Sigma: 0, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Max > model.Worst*3 {
		t.Fatalf("sampled max %v far above the worst-case bound %v", res.Max, model.Worst)
	}
	if res.Mean > model.Worst {
		t.Fatalf("sampled mean %v above the worst case %v", res.Mean, model.Worst)
	}
}

// Variation widens the distribution.
func TestMonteCarloVariationWidens(t *testing.T) {
	p := refParams(64, 45)
	tight, err := MonteCarlo(p, MCOptions{Trials: 1500, Sigma: 0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := MonteCarlo(p, MCOptions{Trials: 1500, Sigma: 0.3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if wide.Std <= tight.Std {
		t.Fatalf("sigma=0.3 std %v not above sigma=0 std %v", wide.Std, tight.Std)
	}
	if wide.P99 <= tight.P99 {
		t.Fatalf("sigma=0.3 p99 %v not above sigma=0 p99 %v", wide.P99, tight.P99)
	}
}

func TestMonteCarloErrors(t *testing.T) {
	p := refParams(16, 45)
	if _, err := MonteCarlo(p, MCOptions{Trials: 0}); err == nil {
		t.Error("0 trials accepted")
	}
	if _, err := MonteCarlo(p, MCOptions{Trials: 10, Sigma: 0.9}); err == nil {
		t.Error("huge sigma accepted")
	}
	bad := p
	bad.Rows = 0
	if _, err := MonteCarlo(bad, MCOptions{Trials: 10}); err == nil {
		t.Error("invalid params accepted")
	}
}

// Determinism: the same seed reproduces the same distribution.
func TestMonteCarloDeterministic(t *testing.T) {
	p := refParams(32, 45)
	a, err := MonteCarlo(p, MCOptions{Trials: 200, Sigma: 0.1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MonteCarlo(p, MCOptions{Trials: 200, Sigma: 0.1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

// The seeding contract: the per-trial stream family is based on Seed, zero
// meaning DefaultSeed, so repeated runs with no Seed are bit-identical to
// each other and to an explicit Seed: DefaultSeed run.
func TestMonteCarloNilRngDeterministic(t *testing.T) {
	p := refParams(32, 45)
	opt := MCOptions{Trials: 300, Sigma: 0.1}
	a, err := MonteCarlo(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MonteCarlo(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("unseeded runs differ: %+v vs %+v", a, b)
	}
	opt.Seed = DefaultSeed
	c, err := MonteCarlo(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a != c {
		t.Fatalf("zero Seed does not match explicit DefaultSeed: %+v vs %+v", a, c)
	}
	opt.Seed = DefaultSeed + 1
	d, err := MonteCarlo(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a == d {
		t.Fatal("different seeds produced identical distributions")
	}
}

// Parallel determinism: the seeded per-trial streams make the result a pure
// function of (options, trial index), so every worker count yields the same
// MCResult bit for bit.
func TestMonteCarloParallelDeterminism(t *testing.T) {
	p := refParams(32, 45)
	// 333 trials is deliberately not a multiple of the shard size.
	ref, err := MonteCarlo(p, MCOptions{Trials: 333, Sigma: 0.1, Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		got, err := MonteCarlo(p, MCOptions{Trials: 333, Sigma: 0.1, Seed: 7, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got != ref {
			t.Errorf("workers=%d: %+v differs from sequential %+v", workers, got, ref)
		}
	}
}

func TestMonteCarloCancelled(t *testing.T) {
	p := refParams(32, 45)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MonteCarloContext(ctx, p, MCOptions{Trials: 500, Sigma: 0.1, Workers: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// Golden checks of the interpolated percentiles on tiny sorted slices.
func TestPercentileInterpolation(t *testing.T) {
	cases := []struct {
		sorted []float64
		q      float64
		want   float64
	}{
		{[]float64{3}, 0.99, 3},
		{[]float64{1, 2}, 0.5, 1.5},
		{[]float64{0, 10}, 0.95, 9.5},
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},
		{[]float64{0, 1, 2, 3, 4}, 0.95, 3.8},
		{[]float64{0, 1, 2, 3, 4}, 1.0, 4},
		{[]float64{0, 1, 2, 3, 4}, 0.0, 0},
	}
	for _, c := range cases {
		if got := percentile(c.sorted, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.sorted, c.q, got, c.want)
		}
	}
}
