package circuit

import (
	"math"
	"testing"

	"mnsim/internal/device"
	"mnsim/internal/linalg"
)

// costCrossbar builds a small nonlinear crossbar with a deterministic
// resistance pattern for the cost-model tests.
func costCrossbar(m, n int) (*Crossbar, []float64) {
	dev := device.RRAM()
	r := make([][]float64, m)
	for i := range r {
		r[i] = make([]float64, n)
		for j := range r[i] {
			r[i][j] = dev.RMin + float64((i*n+j)%7)/7*(dev.RMax-dev.RMin)
		}
	}
	vin := make([]float64, m)
	for i := range vin {
		vin[i] = dev.ReadVoltage * float64(1+i%3) / 3
	}
	return &Crossbar{M: m, N: n, R: r, WireR: 2.5, RSense: 1e3, Dev: dev}, vin
}

// TestCostAccountingBitIdentical is the neutrality contract: accounting
// is always on and purely observational, so extra booked work — the
// condition estimate that SolveOptions.Diagnostics adds to the
// diagnostics phase — must leave the outputs and every other phase's
// counts bit-identical.
func TestCostAccountingBitIdentical(t *testing.T) {
	c, vin := costCrossbar(8, 8)
	plain, err := c.Solve(vin, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	diag, err := c.Solve(vin, SolveOptions{Diagnostics: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.NewtonIters != diag.NewtonIters || plain.CGIters != diag.CGIters {
		t.Fatalf("iteration counts differ: %d/%d vs %d/%d",
			plain.NewtonIters, plain.CGIters, diag.NewtonIters, diag.CGIters)
	}
	for i := range plain.NodeV {
		if math.Float64bits(plain.NodeV[i]) != math.Float64bits(diag.NodeV[i]) {
			t.Fatalf("NodeV[%d] differs: %v vs %v", i, plain.NodeV[i], diag.NodeV[i])
		}
	}
	if math.Float64bits(plain.Power) != math.Float64bits(diag.Power) {
		t.Fatalf("Power differs: %v vs %v", plain.Power, diag.Power)
	}
	if plain.Diag.Cost == nil || diag.Diag.Cost == nil {
		t.Fatal("Diag.Cost missing: accounting is always on")
	}
	p, d := *plain.Diag.Cost, *diag.Diag.Cost
	if d.Diagnostics.Flops == 0 {
		t.Fatal("condition estimate booked no diagnostics flops")
	}
	p.Diagnostics, d.Diagnostics = linalg.OpCount{}, linalg.OpCount{}
	if p != d {
		t.Fatalf("non-diagnostics phases differ: %+v vs %+v", p, d)
	}
}

// TestCostModelPhases checks the attribution lands where the pipeline
// spends it: assembly once, newton updates per iteration, the CG loop
// dominating, diagnostics only when requested.
func TestCostModelPhases(t *testing.T) {
	c, vin := costCrossbar(8, 8)
	res, err := c.Solve(vin, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cost := res.Diag.Cost
	if cost == nil {
		t.Fatal("no cost model on default solve")
	}
	if cost.Assembly.Flops == 0 || cost.Assembly.Bytes == 0 {
		t.Errorf("assembly phase empty: %+v", cost.Assembly)
	}
	if cost.NewtonUpdate.Flops == 0 {
		t.Errorf("newton-update phase empty: %+v", cost.NewtonUpdate)
	}
	if cost.CGLoop.SpMVs == 0 || cost.CGLoop.Flops == 0 {
		t.Errorf("cg-loop phase empty: %+v", cost.CGLoop)
	}
	if cost.Diagnostics.Flops != 0 {
		t.Errorf("diagnostics phase nonzero without opt.Diagnostics: %+v", cost.Diagnostics)
	}
	// The CG inner loop must dominate a Newton–CG solve.
	total := cost.Total()
	if cost.CGLoop.Flops*2 < total.Flops {
		t.Errorf("cg-loop %d flops is under half of total %d", cost.CGLoop.Flops, total.Flops)
	}
	// SpMV count ties to iteration structure: one per CG iteration plus
	// one residual product per CG call (setup + one per Newton step).
	calls := int64(1 + len(res.Diag.CGIters))
	if want := int64(res.CGIters) + calls; cost.CGLoop.SpMVs != want {
		t.Errorf("cg-loop SpMVs = %d, want %d (cg iters %d, calls %d)",
			cost.CGLoop.SpMVs, want, res.CGIters, calls)
	}
	// With diagnostics requested, the estimator's cost is attributed.
	res2, err := c.Solve(vin, SolveOptions{Diagnostics: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Diag.Cost.Diagnostics.Flops == 0 {
		t.Errorf("diagnostics phase empty with opt.Diagnostics: %+v", res2.Diag.Cost.Diagnostics)
	}
	if res2.Diag.CondEstimate <= 0 {
		t.Errorf("cond estimate missing: %v", res2.Diag.CondEstimate)
	}
}

// TestZeroWireCostAttribution: the bisection path books its device
// evaluations under the inner-loop phase.
func TestZeroWireCostAttribution(t *testing.T) {
	c, vin := costCrossbar(4, 4)
	c.WireR = 0
	res, err := c.Solve(vin, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diag == nil || res.Diag.Cost == nil {
		t.Fatal("zero-wire solve missing cost model")
	}
	if res.Diag.Cost.CGLoop.Flops == 0 {
		t.Errorf("zero-wire inner loop booked no flops: %+v", res.Diag.Cost)
	}
	if res.Diag.Cost.Assembly.Flops != 0 {
		t.Errorf("zero-wire solve booked assembly flops: %+v", res.Diag.Cost.Assembly)
	}
}

// TestConvergenceAnalytics: a healthy Newton solve contracts (decay rate
// well under 1, no stagnation) and reports the mean CG effort per step.
func TestConvergenceAnalytics(t *testing.T) {
	c, vin := costCrossbar(8, 8)
	res, err := c.Solve(vin, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	conv := res.Diag.Convergence
	if conv == nil {
		t.Fatal("no convergence analytics on nonlinear solve")
	}
	// The decay rate is defined over the nonzero residual prefix — a
	// trailing exact zero is the warm-start early exit confirming
	// convergence for free.
	nonzero := res.Diag.Residuals
	for len(nonzero) > 0 && nonzero[len(nonzero)-1] == 0 {
		nonzero = nonzero[:len(nonzero)-1]
	}
	if len(nonzero) >= 2 {
		if !(conv.DecayRate > 0) || conv.DecayRate >= stagnationRatio {
			t.Errorf("healthy solve decay rate = %v, want in (0, %v)", conv.DecayRate, stagnationRatio)
		}
	}
	if conv.Stagnated {
		t.Errorf("healthy solve flagged stagnated (residuals %v)", res.Diag.Residuals)
	}
	if conv.CGPerNewton <= 0 {
		t.Errorf("CGPerNewton = %v, want > 0", conv.CGPerNewton)
	}
}

// TestStagnationFlagOnDivergence: a diverging trajectory must trip the
// stagnation flag and carry a cost model on the typed error.
func TestStagnationFlagOnDivergence(t *testing.T) {
	dev := device.RRAM()
	dev.NonlinearVc = 2e-3 // far too steep for Newton — the known-bad specimen
	r := [][]float64{{100e3, 100e3}, {100e3, 100e3}}
	c := &Crossbar{M: 2, N: 2, R: r, WireR: 1, RSense: 1500, Dev: dev}
	_, err := c.Solve([]float64{0.3, 0.3}, SolveOptions{MaxNewton: 5})
	de, ok := err.(*DivergenceError)
	if !ok {
		t.Fatalf("want *DivergenceError, got %v", err)
	}
	if de.Diag.Convergence == nil || !de.Diag.Convergence.Stagnated {
		t.Errorf("diverging solve not flagged stagnated: %+v", de.Diag.Convergence)
	}
	if de.Diag.Cost == nil || de.Diag.Cost.Total().Flops == 0 {
		t.Errorf("diverging solve carries no cost model: %+v", de.Diag.Cost)
	}
}

// TestAnalyzeDecayRate pins the decay-rate formula on a synthetic
// trajectory: residuals halving each step give rate 0.5.
func TestAnalyzeDecayRate(t *testing.T) {
	d := &Diagnostics{Residuals: []float64{1, 0.5, 0.25, 0.125}, CGIters: []int{10, 20, 30, 40}}
	d.analyze()
	if d.Convergence == nil {
		t.Fatal("analyze produced nothing")
	}
	if math.Abs(d.Convergence.DecayRate-0.5) > 1e-12 {
		t.Errorf("decay rate = %v, want 0.5", d.Convergence.DecayRate)
	}
	if d.Convergence.Stagnated {
		t.Error("halving trajectory flagged stagnated")
	}
	if math.Abs(d.Convergence.CGPerNewton-25) > 1e-12 {
		t.Errorf("cg/newton = %v, want 25", d.Convergence.CGPerNewton)
	}
	flat := &Diagnostics{Residuals: []float64{1, 0.99, 0.985, 0.98}}
	flat.analyze()
	if !flat.Convergence.Stagnated {
		t.Error("flat trajectory not flagged stagnated")
	}
}

// TestStampTrafficModel pins the byte and flop model of the phases that
// stamp and factor, for a cold non-linear solve: the stamp writes the
// N + M wire-only sums, the M sources and 24 bytes per cell; writing the
// source-only right-hand side costs a clear of the 2·M·N nodes plus 24
// bytes per source, once for the setup solve and once in every restamp;
// a restamp moves 72 bytes per cell; the ΔV scan is one streaming pass
// per Newton step; a factorization writes the chain couplings (8 bytes
// per node) and factors at 32 bytes per element, reading the operator's
// diagonal with no pivot copy.
func TestStampTrafficModel(t *testing.T) {
	c, vin := costCrossbar(8, 6)
	res, err := c.Solve(vin, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cost := res.Diag.Cost
	m, n := int64(c.M), int64(c.N)
	cells, nodes := m*n, 2*m*n
	restamps := int64(len(res.Diag.CGIters))
	factors := 1 + int64(res.Diag.PrecondRefreshes)
	sources := 8*nodes + 24*m
	for _, p := range []struct {
		name         string
		got          linalg.OpCount
		flops, bytes int64
	}{
		{"assembly", cost.Assembly, cells, 8*(n+2*m) + 24*cells + sources},
		{"newton update", cost.NewtonUpdate, restamps * (cells*(deviceEvalFlops+5) + 2*nodes), restamps * (72*cells + sources + 24*nodes)},
		{"precond", cost.Precond, factors * (4*nodes - 3*(m+n)), factors * (8*nodes + 32*nodes)},
	} {
		if p.got.Flops != p.flops || p.got.Bytes != p.bytes {
			t.Errorf("%s: %d flops, %d bytes; want %d, %d", p.name, p.got.Flops, p.got.Bytes, p.flops, p.bytes)
		}
	}
}
