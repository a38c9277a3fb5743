package linalg

import (
	"errors"
	"math"
	"testing"
)

// chainTrips stamps a local tridiagonal chain (diag 4, off-diagonal −1)
// onto the global indices of a block.
func chainTrips(b Block) []Coord {
	var trips []Coord
	for k := 0; k < b.Len; k++ {
		i := b.Start + k*b.Stride
		trips = append(trips, Coord{i, i, 4})
		if k > 0 {
			j := b.Start + (k-1)*b.Stride
			trips = append(trips, Coord{i, j, -1}, Coord{j, i, -1})
		}
	}
	return trips
}

// TestBlockJacobiExactOnBlockDiagonal: when the matrix IS block diagonal
// over the given blocks, Apply must be an exact solve — including for a
// strided (interleaved) block layout like the crossbar's column chains.
func TestBlockJacobiExactOnBlockDiagonal(t *testing.T) {
	blocks := []Block{{Start: 0, Stride: 2, Len: 3}, {Start: 1, Stride: 2, Len: 3}}
	var trips []Coord
	for _, b := range blocks {
		trips = append(trips, chainTrips(b)...)
	}
	a, err := NewCSR(6, trips)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewBlockJacobi(a, blocks, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := []float64{1, -2, 3, 0.5, -1, 2}
	z := make([]float64, 6)
	p.Apply(r, z, nil)
	// Residual of the exact solve must vanish.
	az := a.MulVec(z, nil)
	for i := range az {
		if math.Abs(az[i]-r[i]) > 1e-12 {
			t.Fatalf("A·z ≠ r at %d: %v vs %v", i, az[i], r[i])
		}
	}
}

// TestBlockJacobiRefresh: after the matrix values change, Refresh must track
// them without rebuilding the pattern mapping.
func TestBlockJacobiRefresh(t *testing.T) {
	blocks := []Block{{Start: 0, Stride: 1, Len: 4}}
	trips := chainTrips(blocks[0])
	a, err := NewCSR(4, trips)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewBlockJacobi(a, blocks, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Strengthen the diagonal and refresh.
	for i := range trips {
		if trips[i].Row == trips[i].Col {
			trips[i].Val = 10
		}
	}
	if err := a.UpdateValues(trips); err != nil {
		t.Fatal(err)
	}
	if err := p.Refresh(a, nil); err != nil {
		t.Fatal(err)
	}
	r := []float64{1, 2, 3, 4}
	z := make([]float64, 4)
	p.Apply(r, z, nil)
	az := a.MulVec(z, nil)
	for i := range az {
		if math.Abs(az[i]-r[i]) > 1e-12 {
			t.Fatalf("refreshed A·z ≠ r at %d: %v vs %v", i, az[i], r[i])
		}
	}
}

// TestBlockJacobiValidation: blocks must partition the index set exactly.
func TestBlockJacobiValidation(t *testing.T) {
	a, err := NewCSR(4, chainTrips(Block{Start: 0, Stride: 1, Len: 4}))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		blocks []Block
	}{
		{"overlap", []Block{{0, 1, 3}, {2, 1, 2}}},
		{"gap", []Block{{0, 1, 2}, {3, 1, 1}}},
		{"out of range", []Block{{0, 1, 5}}},
		{"zero len", []Block{{0, 1, 0}, {0, 1, 4}}},
	}
	for _, tc := range cases {
		if _, err := NewBlockJacobi(a, tc.blocks, 1, nil); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// TestBlockJacobiCutsIterations: on a crossbar-like matrix — strong
// tridiagonal chains weakly coupled to each other — block-Jacobi CG must
// converge in far fewer iterations than diagonal Jacobi.
func TestBlockJacobiCutsIterations(t *testing.T) {
	const chains, length = 8, 8
	n := chains * length
	blocks := make([]Block, chains)
	var trips []Coord
	for c := 0; c < chains; c++ {
		blocks[c] = Block{Start: c * length, Stride: 1, Len: length}
		for k := 0; k < length; k++ {
			i := c*length + k
			trips = append(trips, Coord{i, i, 0.8}) // wire-scale diagonal
			if k > 0 {
				trips = append(trips, Coord{i, i - 1, -0.4}, Coord{i - 1, i, -0.4})
			}
			// Weak cell coupling to the matching node of the next chain.
			if c+1 < chains {
				j := (c+1)*length + k
				g := 1e-5
				trips = append(trips,
					Coord{i, j, -g}, Coord{j, i, -g},
					Coord{i, i, g}, Coord{j, j, g})
			}
		}
	}
	a, err := NewCSR(n, trips)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i + 1))
	}
	xj, itJac, err := SolveCG(a, b, nil, CGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewBlockJacobi(a, blocks, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	xb, itBlk, err := SolveCG(a, b, nil, CGOptions{Tol: 1e-10, Precond: p})
	if err != nil {
		t.Fatal(err)
	}
	for i := range xb {
		if math.Abs(xb[i]-xj[i]) > 1e-7*(1+math.Abs(xj[i])) {
			t.Fatalf("solutions disagree at %d: %v vs %v", i, xb[i], xj[i])
		}
	}
	if itBlk*3 > itJac {
		t.Fatalf("block-jacobi took %d iters, jacobi %d — expected ≥3× reduction", itBlk, itJac)
	}
}

// TestSolveCGPrecondAccounting: a custom preconditioner must land its
// factorizations and applies in the op counters.
func TestSolveCGPrecondAccounting(t *testing.T) {
	blocks := []Block{{Start: 0, Stride: 1, Len: 6}}
	a, err := NewCSR(6, chainTrips(blocks[0]))
	if err != nil {
		t.Fatal(err)
	}
	var ops OpCount
	p, err := NewBlockJacobi(a, blocks, 1, &ops)
	if err != nil {
		t.Fatal(err)
	}
	if ops.BandFactorizations != 1 {
		t.Fatalf("BandFactorizations = %d after build, want 1", ops.BandFactorizations)
	}
	b := []float64{1, 0, 2, 0, 3, 0}
	_, it, err := SolveCG(a, b, nil, CGOptions{Tol: 1e-12, Precond: p, Ops: &ops})
	if err != nil {
		t.Fatal(err)
	}
	if it < 1 {
		t.Fatalf("iterations = %d", it)
	}
	// Setup apply plus one per non-final iteration.
	if ops.PrecondApplies < int64(it) {
		t.Fatalf("PrecondApplies = %d over %d iterations", ops.PrecondApplies, it)
	}
}

// TestSolveCGZeroRHSWithWarmStart: b = 0 has the unique solution x = 0; a
// non-nil x0 must not be echoed back (the pre-fix behaviour).
func TestSolveCGZeroRHSWithWarmStart(t *testing.T) {
	a, err := NewCSR(3, chainTrips(Block{Start: 0, Stride: 1, Len: 3}))
	if err != nil {
		t.Fatal(err)
	}
	x0 := []float64{1, -2, 3}
	x, it, err := SolveCG(a, make([]float64, 3), x0, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if it != 0 {
		t.Fatalf("iterations = %d, want 0", it)
	}
	for i, v := range x {
		if v != 0 {
			t.Fatalf("x[%d] = %v, want 0 (x0 echoed back?)", i, v)
		}
	}
	// x0 itself must be untouched.
	if x0[0] != 1 || x0[1] != -2 || x0[2] != 3 {
		t.Fatalf("x0 mutated: %v", x0)
	}
}

// TestSolveCGBreakdownOnIndefinite: CG on an indefinite matrix hits
// p·Ap ≤ 0; the solver must return a typed breakdown error rather than
// silently producing NaNs or spinning to MaxIter.
func TestSolveCGBreakdownOnIndefinite(t *testing.T) {
	a, err := NewCSR(2, []Coord{{0, 0, 1}, {1, 1, -1}})
	if err != nil {
		t.Fatal(err)
	}
	x, _, err := SolveCG(a, []float64{0, 1}, nil, CGOptions{MaxIter: 50})
	if err == nil {
		t.Fatal("indefinite solve succeeded")
	}
	var bd *BreakdownError
	if !errors.As(err, &bd) {
		t.Fatalf("err = %v (%T), want *BreakdownError", err, err)
	}
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("breakdown must satisfy errors.Is(err, ErrNoConvergence); got %v", err)
	}
	if bd.PAp > 0 {
		t.Fatalf("PAp = %v, want ≤ 0", bd.PAp)
	}
	for i, v := range x {
		if math.IsNaN(v) {
			t.Fatalf("x[%d] is NaN — breakdown leaked into the iterate", i)
		}
	}
}

// TestSolveCGWarmStartPerturbed: a warm start from a nearby operating point
// must reach the same answer as a cold start, in no more iterations, and an
// already-converged x0 must be returned bit-unchanged in zero iterations.
func TestSolveCGWarmStartPerturbed(t *testing.T) {
	blocks := []Block{{Start: 0, Stride: 1, Len: 32}}
	trips := chainTrips(blocks[0])
	a, err := NewCSR(32, trips)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 32)
	for i := range b {
		b[i] = math.Cos(float64(i))
	}
	opt := CGOptions{Tol: 1e-11}
	xCold, itCold, err := SolveCG(a, b, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Perturb the system slightly (as a Newton restamp would).
	for i := range trips {
		if trips[i].Row == trips[i].Col {
			trips[i].Val = 4.01
		}
	}
	if err := a.UpdateValues(trips); err != nil {
		t.Fatal(err)
	}
	xCold2, itCold2, err := SolveCG(a, b, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	xWarm, itWarm, err := SolveCG(a, b, xCold, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xWarm {
		if math.Abs(xWarm[i]-xCold2[i]) > 1e-8*(1+math.Abs(xCold2[i])) {
			t.Fatalf("warm/cold disagree at %d: %v vs %v", i, xWarm[i], xCold2[i])
		}
	}
	if itWarm > itCold2 {
		t.Fatalf("warm start took %d iters, cold %d", itWarm, itCold2)
	}
	_ = itCold
	// Re-solving from the converged answer is a bit-identical no-op.
	xAgain, itAgain, err := SolveCG(a, b, xWarm, opt)
	if err != nil {
		t.Fatal(err)
	}
	if itAgain != 0 {
		t.Fatalf("re-solve from converged point took %d iters", itAgain)
	}
	for i := range xAgain {
		if math.Float64bits(xAgain[i]) != math.Float64bits(xWarm[i]) {
			t.Fatalf("re-solve not bit-identical at %d", i)
		}
	}
}
