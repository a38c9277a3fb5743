package circuit

import (
	"errors"
	"testing"

	"mnsim/internal/device"
	"mnsim/internal/linalg"
)

// Failure injection: a pathologically non-linear device must trip the
// Newton divergence guard instead of looping or returning garbage, and the
// error must carry the diagnostics payload through the errors.Is/As chain.
func TestNewtonDivergenceDetected(t *testing.T) {
	dev := device.RRAM()
	// Steep enough that Newton oscillates forever, mild enough that each
	// inner CG solve still converges — a true Newton divergence, not a
	// linear-solver failure.
	dev.NonlinearVc = 2e-3
	c := &Crossbar{M: 2, N: 2, R: uniformR(2, 2, 100e3), WireR: 1, RSense: 1500, Dev: dev}
	_, err := c.Solve([]float64{0.3, 0.3}, SolveOptions{MaxNewton: 5})
	if err == nil {
		t.Fatal("pathological device converged")
	}
	if !errors.Is(err, ErrNewtonDiverged) {
		t.Fatalf("errors.Is(err, ErrNewtonDiverged) false for %v", err)
	}
	var de *DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("errors.As *DivergenceError false for %T", err)
	}
	if de.Iters != 5 {
		t.Errorf("DivergenceError.Iters = %d, want 5", de.Iters)
	}
	if de.FinalResidual <= 0 {
		t.Errorf("DivergenceError.FinalResidual = %v, want > 0", de.FinalResidual)
	}
	if de.Diag == nil {
		t.Fatal("DivergenceError.Diag nil")
	}
	if len(de.Diag.Residuals) != 5 || len(de.Diag.CGIters) != 5 {
		t.Errorf("trajectory lengths %d/%d, want 5/5", len(de.Diag.Residuals), len(de.Diag.CGIters))
	}
	if de.Diag.Path != "newton-cg" {
		t.Errorf("Diag.Path = %q", de.Diag.Path)
	}
	if de.Diag.CondEstimate <= 0 {
		t.Errorf("Diag.CondEstimate = %v, want > 0 on divergence", de.Diag.CondEstimate)
	}
	if last := de.Diag.Residuals[len(de.Diag.Residuals)-1]; last != de.FinalResidual {
		t.Errorf("FinalResidual %v disagrees with trajectory tail %v", de.FinalResidual, last)
	}
}

// An exhausted linear-solver budget surfaces as linalg.ErrNoConvergence.
func TestCGBudgetExhaustion(t *testing.T) {
	// Larger grids cannot hit machine-precision tolerance in one iteration.
	m := linalg.NewCrossbarOp(2, 2)
	m.StampWires(1, 1)
	for k := range m.G {
		m.SetCell(k/m.N, k%m.N, 0.5)
	}
	_, _, err := linalg.SolveCG(m, []float64{1, 2, 3, 4, 5, 6, 7, 8}, nil, linalg.CGOptions{Tol: 1e-16, MaxIter: 1})
	if !errors.Is(err, linalg.ErrNoConvergence) {
		t.Fatalf("want ErrNoConvergence, got %v", err)
	}
}

// The zero-wire fast path handles the non-linear device too.
func TestZeroWireNonlinear(t *testing.T) {
	dev := device.RRAM()
	c := &Crossbar{M: 4, N: 4, R: uniformR(4, 4, 200e3), WireR: 0, RSense: 1500, Dev: dev}
	vin := []float64{0.3, 0.3, 0.3, 0.3}
	res, err := c.Solve(vin, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// KCL check at each column: cell currents balance the sense current.
	for n := 0; n < 4; n++ {
		sum := 0.0
		for m := 0; m < 4; m++ {
			sum += dev.Current(vin[m]-res.VOut[n], 200e3)
		}
		if diff := sum - res.VOut[n]/1500; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("column %d KCL residual %v", n, diff)
		}
	}
	// Power bookkeeping holds on the fast path too.
	diss := c.DissipatedPower(res, vin)
	if rel := (res.Power - diss) / res.Power; rel > 1e-6 || rel < -1e-6 {
		t.Fatalf("power mismatch: source %v vs dissipated %v", res.Power, diss)
	}
}

// Solving twice must not corrupt shared state (the assembly is rebuilt).
func TestSolveReentrant(t *testing.T) {
	dev := device.RRAM()
	c := &Crossbar{M: 4, N: 4, R: uniformR(4, 4, 150e3), WireR: 0.5, RSense: 1500, Dev: dev}
	vin := []float64{0.3, 0.2, 0.1, 0.3}
	a, err := c.Solve(vin, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Solve(vin, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for n := range a.VOut {
		if a.VOut[n] != b.VOut[n] {
			t.Fatalf("column %d differs between runs", n)
		}
	}
}
