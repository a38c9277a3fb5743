package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// TestSolveCGRandomSPD: Jacobi-preconditioned CG solves random crossbar
// operators of random shapes to the requested residual.
func TestSolveCGRandomSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		a, _ := randomOp(1+rng.Intn(12), 1+rng.Intn(12), trial%2 == 1, rng)
		b := randomVec(a.Len(), rng)
		x, iters, err := SolveCG(a, b, nil, CGOptions{})
		if err != nil {
			t.Fatalf("trial %d (%dx%d): %v", trial, a.M, a.N, err)
		}
		if iters <= 0 {
			t.Fatalf("trial %d: reported %d iterations", trial, iters)
		}
		r := a.MulVec(x, nil)
		for i := range r {
			r[i] -= b[i]
		}
		if Norm2(r) > 1e-8*(1+Norm2(b)) {
			t.Fatalf("trial %d: residual %v", trial, Norm2(r))
		}
	}
}

func TestSolveCGZeroRHS(t *testing.T) {
	m := diagOp([]float64{1, 1})
	x, iters, err := SolveCG(m, []float64{0, 0}, nil, CGOptions{})
	if err != nil || iters != 0 {
		t.Fatalf("zero rhs: %v, %d", err, iters)
	}
	if x[0] != 0 || x[1] != 0 {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveCGWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, _ := randomOp(5, 10, false, rng)
	b := randomVec(m.Len(), rng)
	x, coldIters, err := SolveCG(m, b, nil, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, warmIters, err := SolveCG(m, b, x, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if warmIters > coldIters {
		t.Fatalf("warm start took %d iters, cold %d", warmIters, coldIters)
	}
}

func TestSolveCGErrors(t *testing.T) {
	m := diagOp([]float64{1, 1})
	if _, _, err := SolveCG(m, []float64{1}, nil, CGOptions{}); err == nil {
		t.Error("short rhs should fail")
	}
	zeroDiag := testOp(1, 1)
	zeroDiag.Diag[1] = 0
	if _, _, err := SolveCG(zeroDiag, []float64{1, 1}, nil, CGOptions{}); err == nil {
		t.Error("zero diagonal should fail")
	}
	if _, _, err := SolveCG(m, []float64{1, 1}, nil, CGOptions{MaxIter: 0, Tol: 1e-30}); err != nil {
		// MaxIter 0 defaults to 10N which is plenty for identity.
		t.Errorf("identity solve failed: %v", err)
	}
}

// fusedCases are the operators the fused CG kernels are checked on:
// crossbar systems with M ≠ N (DC and stepping) and random single-row and
// single-column operators.
func fusedCases(rng *rand.Rand) []*CrossbarOp {
	dc, _ := crossbarSystem(5, 9, 1, false)
	step, _ := crossbarSystem(12, 3, 2, true)
	row, _ := randomOp(1, 7, false, rng)
	col, _ := randomOp(7, 1, true, rng)
	return []*CrossbarOp{dc, step, row, col}
}

func randomVec(n int, rng *rand.Rand) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// sameBits reports whether a and b hold bit-identical floats.
func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestMulVecDotBitIdentical: the fused SpMV·dot equals MulVec then Dot.
func TestMulVecDotBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for ci, a := range fusedCases(rng) {
		x := randomVec(a.Len(), rng)
		want := a.MulVec(x, nil)
		wantDot := Dot(x, want)
		y := randomVec(a.Len(), rng) // stale contents must not leak through
		dot := a.mulVecDot(x, y)
		if !sameBits(y, want) || math.Float64bits(dot) != math.Float64bits(wantDot) {
			t.Fatalf("case %d: fused SpMV·dot differs from MulVec+Dot (dot %v vs %v)", ci, dot, wantDot)
		}
	}
}

// TestResidualBitIdentical: the fused residual equals MulVec, the
// subtraction pass and Norm2.
func TestResidualBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for ci, a := range fusedCases(rng) {
		b, x := randomVec(a.Len(), rng), randomVec(a.Len(), rng)
		want := a.MulVec(x, nil)
		for i := range want {
			want[i] = b[i] - want[i]
		}
		r := randomVec(a.Len(), rng)
		rr := a.residual(b, x, r)
		if !sameBits(r, want) || math.Float64bits(math.Sqrt(rr)) != math.Float64bits(Norm2(want)) {
			t.Fatalf("case %d: fused residual differs from MulVec, subtract, Norm2", ci)
		}
	}
}

// TestUpdateCGBitIdentical: the fused update·norm equals AXPY, AXPY and
// Norm2.
func TestUpdateCGBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 7, 64, 1000} {
		p, ap := randomVec(n, rng), randomVec(n, rng)
		x, r := randomVec(n, rng), randomVec(n, rng)
		alpha := rng.NormFloat64()
		wantX, wantR := append([]float64(nil), x...), append([]float64(nil), r...)
		AXPY(alpha, p, wantX)
		AXPY(-alpha, ap, wantR)
		rr := updateCG(alpha, p, ap, x, r)
		if !sameBits(x, wantX) || !sameBits(r, wantR) ||
			math.Float64bits(math.Sqrt(rr)) != math.Float64bits(Norm2(wantR)) {
			t.Fatalf("n=%d: fused update·norm differs from AXPY, AXPY, Norm2", n)
		}
	}
}
