package linalg

import (
	"errors"
	"fmt"
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
	m := diagOp([]float64{1}, 1)
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
	m := diagOp([]float64{1}, 1)
	if _, _, err := SolveCG(m, []float64{1}, nil, CGOptions{}); err == nil {
		t.Error("short rhs should fail")
	}
	zeroDiag := diagOp([]float64{1}, 0)
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
		r, ax := randomVec(a.Len(), rng), randomVec(a.N, rng)
		rr, bb := a.residual(b, x, r, ax)
		if !sameBits(r, want) || math.Float64bits(math.Sqrt(rr)) != math.Float64bits(Norm2(want)) ||
			math.Float64bits(math.Sqrt(bb)) != math.Float64bits(Norm2(b)) {
			t.Fatalf("case %d: fused residual differs from MulVec, subtract, Norm2", ci)
		}
		// b aliased to r: the same bits, b read before r overwrites it.
		alias := append([]float64(nil), b...)
		rr2, bb2 := a.residual(alias, x, alias, ax)
		if !sameBits(alias, want) || math.Float64bits(rr2) != math.Float64bits(rr) || math.Float64bits(bb2) != math.Float64bits(bb) {
			t.Fatalf("case %d: residual with b aliased to r differs", ci)
		}
	}
}

// axpy computes y += alpha*x in place, one element at a time.
func axpy(alpha float64, x, y []float64) {
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// TestUpdateCGBitIdentical: the fused update·norm equals axpy, axpy and
// Norm2.
func TestUpdateCGBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 7, 64, 1000} {
		p, ap := randomVec(n, rng), randomVec(n, rng)
		x, r := randomVec(n, rng), randomVec(n, rng)
		alpha := rng.NormFloat64()
		wantX, wantR := append([]float64(nil), x...), append([]float64(nil), r...)
		axpy(alpha, p, wantX)
		axpy(-alpha, ap, wantR)
		rr := updateCG(alpha, p, ap, x, r)
		if !sameBits(x, wantX) || !sameBits(r, wantR) ||
			math.Float64bits(math.Sqrt(rr)) != math.Float64bits(Norm2(wantR)) {
			t.Fatalf("n=%d: fused update·norm differs from axpy, axpy, Norm2", n)
		}
	}
}

// TestCGWorkSequenceMatchesFresh drives one CGWork through a Newton-style
// sequence of solves — cold, warm from the previous answer against a
// moved right-hand side, after a C/dt shift of the diagonal, against a
// zero right-hand side, and into a NaN-diagonal breakdown — and checks
// that every call returns the bits, iteration count and error of the same
// call on freshly allocated vectors. The work's z buffer also holds A·p,
// so a lifetime overlap between the two would show here, under the block
// preconditioner and under the Jacobi fallback alike.
func TestCGWorkSequenceMatchesFresh(t *testing.T) {
	for _, block := range []bool{true, false} {
		a, rhs := crossbarSystem(9, 7, 5, false)
		var pre *BlockJacobi
		opt := CGOptions{Tol: 1e-10}
		if block {
			var err error
			if pre, err = NewBlockJacobi(a, nil); err != nil {
				t.Fatal(err)
			}
			opt.Precond = pre
		}
		work := &CGWork{}
		// solve runs one step both ways, compares them and returns the
		// shared run's answer, the next step's warm start.
		solve := func(name string, b, x0 []float64) ([]float64, error) {
			t.Helper()
			name = fmt.Sprintf("block=%v %s", block, name)
			fresh, itF, errF := SolveCG(a, b, x0, opt)
			shared := opt
			shared.Work = work
			x, it, err := SolveCG(a, b, x0, shared)
			if it != itF || fmt.Sprint(err) != fmt.Sprint(errF) {
				t.Fatalf("%s: shared work gave %d iterations, err %v; fresh %d, err %v", name, it, err, itF, errF)
			}
			var bd, bdF *BreakdownError
			if errors.As(err, &bd) != errors.As(errF, &bdF) || bd != nil && (bd.Iter != bdF.Iter || math.Float64bits(bd.PAp) != math.Float64bits(bdF.PAp)) {
				t.Fatalf("%s: breakdown %+v, fresh %+v", name, bd, bdF)
			}
			if !sameBits(x, fresh) {
				t.Fatalf("%s: shared work's solution differs from fresh allocation", name)
			}
			return x, err
		}
		x, _ := solve("cold", rhs, nil)
		moved := make([]float64, len(rhs))
		for i := range moved {
			moved[i] = rhs[i] * (1 + 1e-3*math.Sin(float64(i)))
		}
		x, _ = solve("warm", moved, x)
		a.SetDiagShift(stepShift(a.M))
		if pre != nil {
			if err := pre.Refresh(a, nil); err != nil {
				t.Fatal(err)
			}
		}
		x, _ = solve("shifted", moved, x)
		x, _ = solve("cold on used work", rhs, nil)
		x, _ = solve("zero rhs", make([]float64, len(rhs)), x)
		_, col := stepShift(a.M)
		a.SetDiagShift(math.NaN(), col)
		var bd *BreakdownError
		if _, err := solve("nan diagonal", rhs, x); !errors.As(err, &bd) {
			t.Fatalf("block=%v: NaN diagonal gave %v, want a breakdown", block, err)
		}
	}
}

// TestSolveCGAliasedRHS: a right-hand side built in the work's residual
// buffer (CGWork.RHS) and passed as b solves to the bits, iteration count
// and error of the same solve with a separate b, and a separate b is left
// unchanged — cold, warm, a warm start already inside the tolerance, a
// zero right-hand side and a breakdown, under the block preconditioner and
// the Jacobi fallback.
func TestSolveCGAliasedRHS(t *testing.T) {
	for _, block := range []bool{true, false} {
		a, rhs := crossbarSystem(9, 7, 6, false)
		opt := CGOptions{Tol: 1e-10}
		if block {
			pre, err := NewBlockJacobi(a, nil)
			if err != nil {
				t.Fatal(err)
			}
			opt.Precond = pre
		}
		sep, alias := opt, opt
		sep.Work, alias.Work = &CGWork{}, &CGWork{}
		// solve runs one step with a separate b and with b in the residual
		// buffer, compares them and returns the answer and its count.
		solve := func(name string, b, x0 []float64) ([]float64, int, error) {
			t.Helper()
			name = fmt.Sprintf("block=%v %s", block, name)
			keep := append([]float64(nil), b...)
			want, itW, errW := SolveCG(a, b, x0, sep)
			if !sameBits(b, keep) {
				t.Fatalf("%s: a separate b was written", name)
			}
			want = append([]float64(nil), want...)
			ab := alias.Work.RHS(len(b))
			copy(ab, b)
			got, it, err := SolveCG(a, ab, x0, alias)
			if it != itW || fmt.Sprint(err) != fmt.Sprint(errW) {
				t.Fatalf("%s: aliased b gave %d iterations, err %v; separate %d, err %v", name, it, err, itW, errW)
			}
			var bd, bdW *BreakdownError
			if errors.As(err, &bd) != errors.As(errW, &bdW) || bd != nil && (bd.Iter != bdW.Iter || math.Float64bits(bd.PAp) != math.Float64bits(bdW.PAp)) {
				t.Fatalf("%s: breakdown %+v, separate %+v", name, bd, bdW)
			}
			if !sameBits(got, want) {
				t.Fatalf("%s: aliased b's solution differs from a separate b's", name)
			}
			return append([]float64(nil), got...), it, err
		}
		x, it, _ := solve("cold", rhs, nil)
		if it == 0 {
			t.Fatalf("block=%v: cold solve took no iterations", block)
		}
		moved := make([]float64, len(rhs))
		for i := range moved {
			moved[i] = rhs[i] * (1 + 1e-3*math.Sin(float64(i)))
		}
		x, it, _ = solve("warm", moved, x)
		if it == 0 {
			t.Fatalf("block=%v: warm solve took no iterations", block)
		}
		tol := alias.Tol
		sep.Tol, alias.Tol = 1e-6, 1e-6
		if _, it, _ = solve("warm early exit", moved, x); it != 0 {
			t.Fatalf("block=%v: a converged warm start took %d iterations", block, it)
		}
		sep.Tol, alias.Tol = tol, tol
		if x, _, _ = solve("zero rhs", make([]float64, len(rhs)), x); Norm2(x) != 0 {
			t.Fatalf("block=%v: zero right-hand side gave a non-zero solution", block)
		}
		_, col := stepShift(a.M)
		a.SetDiagShift(math.NaN(), col)
		var bd *BreakdownError
		if _, _, err := solve("nan diagonal", rhs, nil); !errors.As(err, &bd) {
			t.Fatalf("block=%v: NaN diagonal gave %v, want a breakdown", block, err)
		}
	}
}
