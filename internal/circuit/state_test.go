package circuit

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"

	"mnsim/internal/device"
	"mnsim/internal/tech"
)

// sameSolve fails t unless got is want bit for bit: outputs, power,
// operating point, iteration counts and the whole encoded diagnostics.
func sameSolve(t *testing.T, name string, got, want *Result) {
	t.Helper()
	sameBits := func(what string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %s has %d values, want %d", name, what, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: %s[%d] = %v, want %v", name, what, i, a[i], b[i])
			}
		}
	}
	sameBits("VOut", got.VOut, want.VOut)
	sameBits("NodeV", got.NodeV, want.NodeV)
	sameBits("Power", []float64{got.Power}, []float64{want.Power})
	if got.NewtonIters != want.NewtonIters || got.CGIters != want.CGIters {
		t.Fatalf("%s: %d Newton / %d CG iterations, want %d / %d", name, got.NewtonIters, got.CGIters, want.NewtonIters, want.CGIters)
	}
	gd, err := json.Marshal(got.Diag.JSONSafe())
	if err != nil {
		t.Fatal(err)
	}
	wd, err := json.Marshal(want.Diag.JSONSafe())
	if err != nil {
		t.Fatal(err)
	}
	if string(gd) != string(wd) {
		t.Fatalf("%s: diagnostics\n%s\nwant\n%s", name, gd, wd)
	}
}

// TestSolverStateDeterminism is the state-reuse bit-identity contract:
// solving the same crossbar with and without a reused SolverState yields
// bit-identical VOut. A fresh state changes nothing (only warm data ever
// alters the path), and a same-input re-solve through the reused state
// lands on the same bits by doing the work: it warm-starts from the stored
// operating point, which CG's warm-start early exit reproduces exactly.
func TestSolverStateDeterminism(t *testing.T) {
	c, vin := costCrossbar(8, 6)
	bare, err := c.Solve(vin, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := NewSolverState()
	first, err := c.Solve(vin, SolveOptions{State: st})
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Solve(vin, SolveOptions{State: st})
	if err != nil {
		t.Fatal(err)
	}
	for n := range bare.VOut {
		if math.Float64bits(first.VOut[n]) != math.Float64bits(bare.VOut[n]) {
			t.Fatalf("col %d: fresh-state solve differs from stateless (%v vs %v)",
				n, first.VOut[n], bare.VOut[n])
		}
		if math.Float64bits(second.VOut[n]) != math.Float64bits(bare.VOut[n]) {
			t.Fatalf("col %d: reused-state solve differs from stateless (%v vs %v)",
				n, second.VOut[n], bare.VOut[n])
		}
	}
	// Every solve reports work it actually did.
	for name, res := range map[string]*Result{"fresh": first, "reused": second} {
		if res.Diag.Cost == nil {
			t.Errorf("%s-state solve carries no cost model", name)
		}
		if res.NewtonIters < 1 {
			t.Errorf("%s-state solve reports %d Newton iterations", name, res.NewtonIters)
		}
		cg := res.Diag.SetupCGIters
		for _, it := range res.Diag.CGIters {
			cg += it
		}
		if res.CGIters != cg {
			t.Errorf("%s-state solve reports %d CG iterations, trajectory sums to %d", name, res.CGIters, cg)
		}
	}
	if !second.Diag.WarmStart {
		t.Error("same-input re-solve through the state did not warm-start")
	}
}

// TestSolverStateWarmStart: a warm-started solve of a perturbed input must
// converge to the cold answer within tolerance while skipping the setup
// solve and spending fewer total CG iterations.
func TestSolverStateWarmStart(t *testing.T) {
	c, vin := costCrossbar(12, 10)
	st := NewSolverState()
	if _, err := c.Solve(vin, SolveOptions{State: st}); err != nil {
		t.Fatal(err)
	}
	vin2 := append([]float64(nil), vin...)
	for i := range vin2 {
		vin2[i] *= 1.02
	}
	cold, err := c.Solve(vin2, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := c.Solve(vin2, SolveOptions{State: st})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Diag.WarmStart {
		t.Fatal("second state solve did not warm-start")
	}
	if warm.Diag.SetupCGIters != 0 {
		t.Errorf("warm start still ran the setup solve (%d iters)", warm.Diag.SetupCGIters)
	}
	for n := range cold.VOut {
		if math.Abs(warm.VOut[n]-cold.VOut[n]) > 1e-8*(1+math.Abs(cold.VOut[n])) {
			t.Fatalf("col %d: warm %v vs cold %v", n, warm.VOut[n], cold.VOut[n])
		}
	}
	if warm.CGIters >= cold.CGIters {
		t.Errorf("warm solve spent %d CG iters, cold %d", warm.CGIters, cold.CGIters)
	}
}

// TestSolverStateLinearWarmStart: linear solves warm-start their single CG
// solve through the state as well.
func TestSolverStateLinearWarmStart(t *testing.T) {
	c, vin := costCrossbar(8, 8)
	c.Linear = true
	st := NewSolverState()
	if _, err := c.Solve(vin, SolveOptions{State: st}); err != nil {
		t.Fatal(err)
	}
	vin2 := append([]float64(nil), vin...)
	vin2[0] *= 1.01
	cold, err := c.Solve(vin2, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := c.Solve(vin2, SolveOptions{State: st})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Diag.WarmStart {
		t.Fatal("linear state solve did not warm-start")
	}
	for n := range cold.VOut {
		if math.Abs(warm.VOut[n]-cold.VOut[n]) > 1e-8*(1+math.Abs(cold.VOut[n])) {
			t.Fatalf("col %d: warm %v vs cold %v", n, warm.VOut[n], cold.VOut[n])
		}
	}
}

// TestSolverStateShapeChange: a state survives being reused across crossbars
// of different shapes — the cached pattern is rebuilt, not misapplied.
func TestSolverStateShapeChange(t *testing.T) {
	st := NewSolverState()
	c1, vin1 := costCrossbar(6, 4)
	if _, err := c1.Solve(vin1, SolveOptions{State: st}); err != nil {
		t.Fatal(err)
	}
	c2, vin2 := costCrossbar(4, 6)
	bare, err := c2.Solve(vin2, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reused, err := c2.Solve(vin2, SolveOptions{State: st})
	if err != nil {
		t.Fatal(err)
	}
	for n := range bare.VOut {
		if math.Float64bits(reused.VOut[n]) != math.Float64bits(bare.VOut[n]) {
			t.Fatalf("col %d: shape-changed state solve differs (%v vs %v)",
				n, reused.VOut[n], bare.VOut[n])
		}
	}
}

// TestSolverStateOtherCrossbar: the warm point is keyed to the crossbar
// that stored it. Through a state that last solved crossbar A, a solve of
// a same-shape crossbar B is cold and bit-identical to a fresh-state solve
// of B, Linear or not; B's re-solve then warm-starts from B's point.
func TestSolverStateOtherCrossbar(t *testing.T) {
	dev := device.RRAM()
	rng := rand.New(rand.NewSource(3))
	for _, linear := range []bool{false, true} {
		a := &Crossbar{M: 12, N: 10, R: randomR(12, 10, dev, rng), WireR: 2.5, RSense: 1e3, Dev: dev, Linear: linear}
		b := &Crossbar{M: 12, N: 10, R: randomR(12, 10, dev, rng), WireR: 2.5, RSense: 1e3, Dev: dev, Linear: linear}
		vin := make([]float64, 12)
		for i := range vin {
			vin[i] = 2 * dev.ReadVoltage * rng.Float64()
		}
		st := NewSolverState()
		if _, err := a.Solve(vin, SolveOptions{State: st}); err != nil {
			t.Fatal(err)
		}
		got, err := b.Solve(vin, SolveOptions{State: st})
		if err != nil {
			t.Fatal(err)
		}
		want, err := b.Solve(vin, SolveOptions{State: NewSolverState()})
		if err != nil {
			t.Fatal(err)
		}
		sameSolve(t, "B after A", got, want)
		if got.Diag.WarmStart {
			t.Fatal("B's solve warm-started from A's operating point")
		}
		vin[0] *= 1.01
		again, err := b.Solve(vin, SolveOptions{State: st})
		if err != nil {
			t.Fatal(err)
		}
		if !again.Diag.WarmStart {
			t.Fatal("B's re-solve did not warm-start from B's operating point")
		}
	}
}

// TestSolverStateSettleNeutral: a settling run through a state borrows its
// buffers only. Its settle time is a stateless run's, a solve after it
// through the same state is bit-identical to a fresh-state solve, and it
// leaves a stored warm point, and so the next warm solve, as it was.
func TestSolverStateSettleNeutral(t *testing.T) {
	c, vin := benchCrossbar(16)
	wire := tech.MustInterconnect(45)
	topt := TransientOptions{NodeCap: wire.SegmentC, CellCap: c.Dev.CellCap}
	st := NewSolverState()
	// A state that solved another shape first, so every buffer is resized.
	other, otherVin := costCrossbar(8, 6)
	if _, err := other.Solve(otherVin, SolveOptions{State: st}); err != nil {
		t.Fatal(err)
	}
	want, err := c.SettleTime(vin, topt)
	if err != nil {
		t.Fatal(err)
	}
	topt.State = st
	got, err := c.SettleTime(vin, topt)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("settle time through a state %v, stateless %v", got, want)
	}
	after, err := c.Solve(vin, SolveOptions{State: st})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := c.Solve(vin, SolveOptions{State: NewSolverState()})
	if err != nil {
		t.Fatal(err)
	}
	sameSolve(t, "solve after settle", after, fresh)

	// Warm point: c's, stored by the solve above. Settle, then re-solve a
	// drifted input; a twin state that never settled must agree.
	twin := NewSolverState()
	if _, err := c.Solve(vin, SolveOptions{State: twin}); err != nil {
		t.Fatal(err)
	}
	warmV := st.WarmV()
	if _, err := c.SettleTime(vin, topt); err != nil {
		t.Fatal(err)
	}
	sameSolve(t, "warm point after settle", &Result{NodeV: st.WarmV()}, &Result{NodeV: warmV})
	vin[0] *= 1.01
	warm, err := c.Solve(vin, SolveOptions{State: st})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := c.Solve(vin, SolveOptions{State: twin})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Diag.WarmStart {
		t.Fatal("the re-solve after a settling run did not warm-start")
	}
	sameSolve(t, "warm solve after settle", warm, ref)
}

// TestSolverStateNodeVIsWarmPoint: through a state, Result.NodeV is the
// stored operating point itself (so WarmV reads it back), with a
// stateless solve's bits; the next solve through the state overwrites it.
func TestSolverStateNodeVIsWarmPoint(t *testing.T) {
	c, vin := costCrossbar(8, 6)
	bare, err := c.Solve(vin, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := NewSolverState()
	res, err := c.Solve(vin, SolveOptions{State: st})
	if err != nil {
		t.Fatal(err)
	}
	sameSolve(t, "stateful NodeV", &Result{NodeV: res.NodeV}, &Result{NodeV: bare.NodeV})
	sameSolve(t, "WarmV", &Result{NodeV: st.WarmV()}, &Result{NodeV: res.NodeV})
	if &res.NodeV[0] != &st.v[0] {
		t.Fatal("stateful NodeV is a copy of the state's operating point")
	}
	vin[0] *= 1.05
	next, err := c.Solve(vin, SolveOptions{State: st})
	if err != nil {
		t.Fatal(err)
	}
	sameSolve(t, "NodeV after the next solve", &Result{NodeV: res.NodeV}, &Result{NodeV: next.NodeV})
}

// TestPrecondSelection: the block-Jacobi preconditioner is the solve's
// inner preconditioner, and its work is booked where it happens — band
// factorizations in the precond phase, applies in the CG loop.
func TestPrecondSelection(t *testing.T) {
	c, vin := costCrossbar(10, 10)
	blk, err := c.Solve(vin, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if blk.Diag.Cost.Precond.BandFactorizations == 0 {
		t.Error("block-jacobi solve booked no band factorizations")
	}
	if blk.Diag.Cost.CGLoop.PrecondApplies == 0 {
		t.Error("block-jacobi solve booked no preconditioner applies in the CG loop")
	}
}

// TestPrecondRefreshPolicy pins the modified-Newton refresh policy on an
// input that reaches it: an 8×8 random-level crossbar on 50 Ω segments
// driven up to 5 V, well above the RRAM write voltage. Its CG effort
// regresses past 2·baseline+8 once, the block-Jacobi factor is refreshed
// once, and the solve still converges to a power-conserving operating
// point. The same crossbar at drives scaled under the write voltage never
// reaches the policy.
func TestPrecondRefreshPolicy(t *testing.T) {
	dev := device.RRAM()
	rng := rand.New(rand.NewSource(2))
	c := &Crossbar{M: 8, N: 8, R: randomR(8, 8, dev, rng), WireR: 50, RSense: 150, Dev: dev}
	vin := make([]float64, 8)
	for i := range vin {
		vin[i] = 5 * rng.Float64()
	}
	res, err := c.Solve(vin, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Diag.PrecondRefreshes; got != 1 {
		t.Fatalf("PrecondRefreshes = %d, want 1", got)
	}
	if last := res.Diag.Residuals[len(res.Diag.Residuals)-1]; last >= 1e-9 {
		t.Fatalf("final max ΔV %v above Tol", last)
	}
	if diss := c.DissipatedPower(res, vin); math.Abs(res.Power-diss)/res.Power > 1e-5 {
		t.Fatalf("source %v vs dissipated %v", res.Power, diss)
	}
	scale := dev.WriteVoltage / 5
	for i := range vin {
		vin[i] *= scale
	}
	low, err := c.Solve(vin, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if low.Diag.PrecondRefreshes != 0 {
		t.Fatalf("drives under the write voltage refreshed %d times", low.Diag.PrecondRefreshes)
	}
}

// zeroWireReference cross-checks the bisection path against the full MNA
// path at near-zero wire resistance.
func zeroWireReference(t *testing.T, vin []float64) ([]float64, []float64) {
	t.Helper()
	dev := device.RRAM()
	r := [][]float64{
		{200e3, 400e3, 800e3},
		{300e3, 150e3, 600e3},
		{900e3, 250e3, 120e3},
		{500e3, 700e3, 350e3},
	}
	// WireR 1e-2 is small enough that interconnect drops are far below the
	// comparison tolerance, but large enough to keep the MNA system well
	// conditioned (smaller values leave CG residual error above the wire
	// effect itself).
	zero := &Crossbar{M: 4, N: 3, R: r, WireR: 0, RSense: 1e3, Dev: dev}
	resist := &Crossbar{M: 4, N: 3, R: r, WireR: 1e-2, RSense: 1e3, Dev: dev}
	zr, err := zero.Solve(vin, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := resist.Solve(vin, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return zr.VOut, rr.VOut
}

// TestZeroWireNegativeInputs: with all-negative inputs the column voltages
// are negative; the historical [0, max(vin)] bracket collapsed to a point
// and silently reported 0 V. The bisection must agree with the resistive
// MNA path in the r → 0 limit.
func TestZeroWireNegativeInputs(t *testing.T) {
	vout, want := zeroWireReference(t, []float64{-0.12, -0.08, -0.15, -0.10})
	for n := range vout {
		if vout[n] >= 0 {
			t.Errorf("col %d: all-negative inputs gave VOut %v, want < 0", n, vout[n])
		}
		if math.Abs(vout[n]-want[n]) > 1e-8+1e-5*math.Abs(want[n]) {
			t.Errorf("col %d: bisection %v vs resistive reference %v", n, vout[n], want[n])
		}
	}
}

// TestZeroWireMixedSignInputs: with mixed-sign inputs the root can fall on
// either side of zero; the bracket must span [min(vin,0), max(vin,0)].
func TestZeroWireMixedSignInputs(t *testing.T) {
	vout, want := zeroWireReference(t, []float64{0.12, -0.09, 0.05, -0.14})
	for n := range vout {
		if math.Abs(vout[n]-want[n]) > 1e-8+1e-5*math.Abs(want[n]) {
			t.Errorf("col %d: bisection %v vs resistive reference %v", n, vout[n], want[n])
		}
	}
}

// TestZeroWireSignSymmetry: the sinh I–V law is odd, so negating every
// input must negate every output exactly (up to bisection tolerance).
func TestZeroWireSignSymmetry(t *testing.T) {
	vin := []float64{0.12, 0.08, 0.15, 0.10}
	neg := make([]float64, len(vin))
	for i := range vin {
		neg[i] = -vin[i]
	}
	pos, _ := zeroWireReference(t, vin)
	flipped, _ := zeroWireReference(t, neg)
	for n := range pos {
		if math.Abs(pos[n]+flipped[n]) > 1e-9 {
			t.Errorf("col %d: V(vin) = %v but V(-vin) = %v — not sign-symmetric",
				n, pos[n], flipped[n])
		}
	}
}

// TestWarmDivergenceSnapshotReplays: a warm-started divergence must record
// its warm vector, and replaying through WarmState must reproduce the
// recorded trajectory bit-identically.
func TestWarmDivergenceSnapshotReplays(t *testing.T) {
	dev := device.RRAM()
	dev.NonlinearVc = 2e-3 // the known-bad divergence specimen
	r := [][]float64{{100e3, 100e3}, {100e3, 100e3}}
	c := &Crossbar{M: 2, N: 2, R: r, WireR: 1, RSense: 1500, Dev: dev}
	vin := []float64{0.3, 0.3}
	opt := SolveOptions{MaxNewton: 5}

	// Seed a warm state from a converged solve of the same crossbar (the
	// warm point is keyed to it) with a tame device and input.
	st := NewSolverState()
	c.Dev = device.RRAM()
	if _, err := c.Solve([]float64{0.05, 0.05}, SolveOptions{State: st}); err != nil {
		t.Fatal(err)
	}
	c.Dev = dev
	warmV := st.WarmV()

	optSt := opt
	optSt.State = st
	_, err := c.Solve(vin, optSt)
	var de *DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("want divergence, got %v", err)
	}
	if !de.Diag.WarmStart {
		t.Fatal("diverged solve did not record its warm start")
	}

	// Replay: same inputs, state reseeded from the recorded warm vector.
	optRe := opt
	optRe.State = WarmState(warmV)
	_, err2 := c.Solve(vin, optRe)
	var de2 *DivergenceError
	if !errors.As(err2, &de2) {
		t.Fatalf("replay did not diverge: %v", err2)
	}
	if len(de.Diag.Residuals) != len(de2.Diag.Residuals) {
		t.Fatalf("trajectory lengths differ: %d vs %d",
			len(de.Diag.Residuals), len(de2.Diag.Residuals))
	}
	for i := range de.Diag.Residuals {
		if math.Float64bits(de.Diag.Residuals[i]) != math.Float64bits(de2.Diag.Residuals[i]) {
			t.Fatalf("step %d: residual %v vs replayed %v",
				i, de.Diag.Residuals[i], de2.Diag.Residuals[i])
		}
	}
}
