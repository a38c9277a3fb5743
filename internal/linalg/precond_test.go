package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mnsim/internal/linalg/densetest"
)

// wireOnly is an m×n operator with wire conductance gw, sense
// conductance gs and no cells: block diagonal over its wire chains.
func wireOnly(m, n int, gw, gs float64) *CrossbarOp {
	a := NewCrossbarOp(m, n)
	a.StampWires(gw, gs)
	for k := range a.G {
		a.SetCell(k/a.N, k%a.N, 0)
	}
	return a
}

// checkExact asserts that z solves A·z = r.
func checkExact(t *testing.T, a *CrossbarOp, r, z []float64) {
	t.Helper()
	az := a.MulVec(z, nil)
	for i := range az {
		if math.Abs(az[i]-r[i]) > 1e-12 {
			t.Fatalf("A·z ≠ r at %d: %v vs %v", i, az[i], r[i])
		}
	}
}

// TestBlockJacobiExactOnBlockDiagonal: when the matrix IS block diagonal
// over the wire chains, Apply must be an exact solve — the interleaved
// column family included.
func TestBlockJacobiExactOnBlockDiagonal(t *testing.T) {
	a := wireOnly(3, 4, 0.8, 0.3)
	p, err := NewBlockJacobi(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := []float64{1, -2, 3, 0.5, -1, 2, 0.25, -3, 1, 1, -1, 2,
		0.5, 0.5, -2, 1, 3, -1, 0, 2, -0.5, 1, 1, -1}
	z := make([]float64, a.Len())
	p.Apply(r, z, nil)
	checkExact(t, a, r, z)
}

// TestBlockJacobiRefresh: after the operator is re-stamped, Refresh must
// track both its diagonal and its wire coupling.
func TestBlockJacobiRefresh(t *testing.T) {
	a := wireOnly(2, 4, 1, 1)
	p, err := NewBlockJacobi(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.StampWires(2.5, 0.1)
	for k := range a.G {
		a.SetCell(k/a.N, k%a.N, 0)
	}
	if err := p.Refresh(a, nil); err != nil {
		t.Fatal(err)
	}
	r := []float64{1, 2, 3, 4, -1, -2, -3, -4, 0.5, 1, 2, 0, 1, 0, 2, 1}
	z := make([]float64, a.Len())
	p.Apply(r, z, nil)
	checkExact(t, a, r, z)
}

// TestBlockJacobiValidation: a preconditioner refuses to refresh against
// an operator of another shape, the transpose with the same node count
// included.
func TestBlockJacobiValidation(t *testing.T) {
	p, err := NewBlockJacobi(testOp(6, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range [][2]int{{4, 6}, {6, 5}, {3, 4}, {12, 2}} {
		if err := p.Refresh(testOp(sh[0], sh[1]), nil); err == nil {
			t.Errorf("%dx%d operator accepted by a 6x4 preconditioner", sh[0], sh[1])
		}
	}
	if err := p.Refresh(testOp(6, 4), nil); err != nil {
		t.Errorf("same-shape refresh: %v", err)
	}
}

// TestBlockJacobiCutsIterations: on a crossbar matrix — strong wire
// chains weakly coupled through the cells — block-Jacobi CG must converge
// in far fewer iterations than diagonal Jacobi.
func TestBlockJacobiCutsIterations(t *testing.T) {
	a, _ := crossbarSystem(8, 8, 3, false)
	n := a.Len()
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i + 1))
	}
	xj, itJac, err := SolveCG(a, b, nil, CGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewBlockJacobi(a, nil)
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
	a := testOp(2, 3)
	var ops OpCount
	p, err := NewBlockJacobi(a, &ops)
	if err != nil {
		t.Fatal(err)
	}
	if ops.BandFactorizations != 5 {
		t.Fatalf("BandFactorizations = %d after build, want 5 (2 row and 3 column chains)", ops.BandFactorizations)
	}
	b := []float64{1, 0, 2, 0, 3, 0, 0, 1, 0, 2, 0, 3}
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
	a := testOp(1, 2)
	x0 := []float64{1, -2, 3, -4}
	x, it, err := SolveCG(a, make([]float64, 4), x0, CGOptions{})
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
	if x0[0] != 1 || x0[1] != -2 || x0[2] != 3 || x0[3] != -4 {
		t.Fatalf("x0 mutated: %v", x0)
	}
}

// TestSolveCGBreakdownOnIndefinite: CG on an indefinite matrix hits
// p·Ap ≤ 0; the solver must return a typed breakdown error rather than
// silently producing NaNs or spinning to MaxIter.
func TestSolveCGBreakdownOnIndefinite(t *testing.T) {
	a := diagOp([]float64{1}, -1)
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
	// A 1×16 operator with unit wire coupling, no cells and every
	// diagonal at 4: a tridiagonal row chain and 16 decoupled nodes.
	a := NewCrossbarOp(1, 16)
	a.GW = 1
	a.SetDiagShift(4, 4)
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
	a.SetDiagShift(4.01, 4.01)
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

// chainPrecond factors a block-Jacobi preconditioner over arbitrary
// families, which must partition [0, len(diag)), with the given chain
// entries (sub zero at chain heads).
func chainPrecond(fams []Family, diag, sub []float64) (*BlockJacobi, error) {
	p := newChainPrecond(fams, len(diag))
	copy(p.sub, sub)
	return p, p.factor(diag, nil)
}

// randomChains draws a random diagonally dominant (so SPD) chain matrix
// over the families, which must partition [0, n), and returns its factored
// preconditioner and the matrix.
func randomChains(n int, fams []Family, rng *rand.Rand) (*BlockJacobi, sortedRows) {
	diag, sub := make([]float64, n), make([]float64, n)
	var trips []coord
	for _, f := range fams {
		for i := f.Start; i < f.Start+f.Chains*f.Len; i++ {
			diag[i] = 2.5 + rng.Float64()
			trips = append(trips, coord{i, i, diag[i]})
			if i >= f.Start+f.Chains {
				sub[i] = -rng.Float64()
				trips = append(trips, coord{i, i - f.Chains, sub[i]}, coord{i - f.Chains, i, sub[i]})
			}
		}
	}
	ref := newSortedRows(n, trips)
	p, err := chainPrecond(fams, diag, sub)
	if err != nil {
		panic(err)
	}
	return p, ref
}

// wireFamilies lists an m×n crossbar's wire chains: each row a family of
// one, the columns one family of n chains of length m.
func wireFamilies(m, n int) []Family {
	var fams []Family
	for i := 0; i < m; i++ {
		fams = append(fams, Family{i * n, 1, n})
	}
	return append(fams, Family{m * n, n, m})
}

// refChainFactor is the scalar bandwidth-1 Cholesky of one chain with
// diagonal a and subdiagonal b (b[0] unused), element by element in the
// order l = b/d′, d = √(a − l·l), 1/d — the oracle the interleaved family
// factor must match bit for bit. It returns what the preconditioner
// stores: L's subdiagonal and reciprocal pivots.
func refChainFactor(a, b []float64) (l, rd []float64, err error) {
	n := len(a)
	d := make([]float64, n)
	l, rd = make([]float64, n), make([]float64, n)
	for k := 0; k < n; k++ {
		s := a[k]
		if k > 0 {
			l[k] = b[k] / d[k-1]
			s -= l[k] * l[k]
		}
		if !(s > 0) {
			return nil, nil, ErrNotSPD
		}
		d[k] = math.Sqrt(s)
		rd[k] = 1 / d[k]
	}
	return l, rd, nil
}

// refChainSolve overwrites x with the chain's solve by scalar forward and
// back substitution (a Thomas sweep against the factor).
func refChainSolve(l, rd, x []float64) {
	n := len(x)
	x[0] *= rd[0]
	for k := 1; k < n; k++ {
		x[k] = (x[k] - l[k]*x[k-1]) * rd[k]
	}
	x[n-1] *= rd[n-1]
	for k := n - 2; k >= 0; k-- {
		x[k] = (x[k] - l[k+1]*x[k+1]) * rd[k]
	}
}

// TestBlockJacobiMatchesChainReference: the family factor and apply are
// bit-identical to a per-chain scalar factor and Thomas solve, on crossbar
// systems (rows as families of one, columns as one interleaved family)
// with M ≠ N and length-1 chains, and on random SPD chain matrices.
func TestBlockJacobiMatchesChainReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type system struct {
		name string
		p    *BlockJacobi
		ref  sortedRows
		fams []Family
	}
	var systems []system
	for _, sh := range [][2]int{{1, 1}, {1, 6}, {7, 1}, {3, 8}, {9, 4}, {16, 16}} {
		for _, step := range []bool{false, true} {
			name := fmt.Sprintf("crossbar %dx%d step=%v", sh[0], sh[1], step)
			a, _ := crossbarSystem(sh[0], sh[1], int64(sh[0]*100+sh[1]), step)
			var caps []float64
			if step {
				row, col := stepShift(sh[0])
				caps = shiftCaps(a, row, col)
			}
			fams := wireFamilies(sh[0], sh[1])
			if !reflect.DeepEqual(a.Families(), fams) {
				t.Fatalf("%s: Families() = %v, want %v", name, a.Families(), fams)
			}
			p, err := NewBlockJacobi(a, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			ref := newSortedRows(a.Len(), assemblyTrips(a, 1/1500.0, caps))
			systems = append(systems, system{name, p, ref, fams})
		}
	}
	// Four single chains of one length are solved as a group; a run broken
	// by a length change is not.
	mixed := []Family{{0, 1, 5}, {5, 1, 5}, {10, 1, 5}, {15, 1, 5}, {20, 3, 1},
		{23, 1, 2}, {25, 1, 2}, {27, 1, 3}, {30, 1, 2}, {32, 1, 2}, {34, 4, 6},
		{58, 1, 1}, {59, 1, 1}, {60, 1, 1}, {61, 1, 1}}
	p, ref := randomChains(62, mixed, rng)
	systems = append(systems, system{"random chains", p, ref, mixed})
	for _, sys := range systems {
		p := sys.p
		r := make([]float64, len(sys.ref))
		for i := range r {
			r[i] = rng.NormFloat64()
		}
		z := make([]float64, len(sys.ref))
		p.Apply(r, z, nil)
		for _, f := range sys.fams {
			for c := 0; c < f.Chains; c++ {
				idx := make([]int, f.Len)
				diag, sub, x := make([]float64, f.Len), make([]float64, f.Len), make([]float64, f.Len)
				for k := range idx {
					i := f.Start + k*f.Chains + c
					idx[k], diag[k], x[k] = i, sys.ref.at(i, i), r[i]
					if k > 0 {
						sub[k] = sys.ref.at(i, i-f.Chains)
					}
				}
				l, rd, err := refChainFactor(diag, sub)
				if err != nil {
					t.Fatalf("%s: reference factor: %v", sys.name, err)
				}
				refChainSolve(l, rd, x)
				for k, i := range idx {
					same := math.Float64bits(p.rdiag[i]) == math.Float64bits(rd[k]) &&
						(k == 0 || math.Float64bits(p.sub[i]) == math.Float64bits(l[k]))
					if !same {
						t.Fatalf("%s: factor differs at index %d (chain %d element %d)", sys.name, i, c, k)
					}
					if math.Float64bits(z[i]) != math.Float64bits(x[k]) {
						t.Fatalf("%s: apply differs at index %d: %v vs reference %v", sys.name, i, z[i], x[k])
					}
				}
			}
		}
	}
}

// TestChainFamilySolveMatchesDense cross-checks the chain solve against
// the dense LU path on random SPD families of several shapes.
func TestChainFamilySolveMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sh := range [][2]int{{1, 1}, {1, 2}, {1, 5}, {2, 1}, {3, 4}, {4, 9}, {1, 33}} {
		fams := []Family{{Start: 0, Chains: sh[0], Len: sh[1]}}
		n := sh[0] * sh[1]
		p, ref := randomChains(n, fams, rng)
		dense := densetest.NewDense(n, n)
		for _, row := range ref {
			for _, e := range row {
				dense.Set(e.row, e.col, e.val)
			}
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want, err := densetest.SolveDense(dense, b)
		if err != nil {
			t.Fatalf("%v dense: %v", sh, err)
		}
		x := make([]float64, n)
		p.Apply(b, x, nil)
		for i := range x {
			if math.Abs(x[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("%v x[%d] = %v, dense %v", sh, i, x[i], want[i])
			}
		}
	}
}

// TestBlockJacobiRejectsIndefinite: a chain with a non-positive pivot must
// fail with ErrNotSPD, at build and at refresh, rather than factor garbage.
func TestBlockJacobiRejectsIndefinite(t *testing.T) {
	for _, fams := range [][]Family{{{0, 1, 2}}, {{0, 2, 1}}} {
		// diag(1, -1): second pivot negative.
		if _, err := chainPrecond(fams, []float64{1, -1}, make([]float64, 2)); !errors.Is(err, ErrNotSPD) {
			t.Fatalf("%v: indefinite factor err = %v, want ErrNotSPD", fams, err)
		}
	}
	a := testOp(1, 3)
	p, err := NewBlockJacobi(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.SetDiagShift(math.NaN(), 0)
	if err := p.Refresh(a, nil); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("NaN pivot refresh err = %v, want ErrNotSPD", err)
	}
}

// TestBlockJacobiRefreshInPlace: refreshing against a re-stamped operator
// refactors in place with no allocation and is bit-identical to a fresh
// build.
func TestBlockJacobiRefreshInPlace(t *testing.T) {
	a, _ := crossbarSystem(4, 5, 1, false)
	p, err := NewBlockJacobi(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := crossbarSystem(4, 5, 2, true)
	if n := testing.AllocsPerRun(5, func() {
		if err := p.Refresh(fresh, nil); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Refresh allocates %v per run", n)
	}
	q, err := NewBlockJacobi(fresh, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := make([]float64, a.Len())
	for i := range r {
		r[i] = 1 + float64(i)
	}
	zp, zq := make([]float64, a.Len()), make([]float64, a.Len())
	p.Apply(r, zp, nil)
	q.Apply(r, zq, nil)
	for i := range zp {
		if math.Float64bits(zp[i]) != math.Float64bits(zq[i]) {
			t.Fatalf("refreshed z[%d] = %v, fresh build %v", i, zp[i], zq[i])
		}
	}
}

// TestBandOpCountFormulas pins the closed-form chain accounting against
// oracles that walk the bandwidth-1 factor and solve element by element,
// for families of one and of several chains, length-1 chains included.
func TestBandOpCountFormulas(t *testing.T) {
	for _, sh := range [][2]int{{1, 1}, {3, 1}, {1, 2}, {1, 8}, {5, 17}, {64, 64}} {
		chains, n := sh[0], sh[1]
		var f, s OpCount
		f.CountChainFactor(chains, n)
		s.CountChainSolve(chains, n)
		var wantF, wantS int64
		for c := 0; c < chains; c++ {
			for k := 0; k < n; k++ {
				wantF++ // square root
				if k > 0 {
					wantF += 3 // division, multiply-subtract pair
				}
				for _, end := range []bool{k == 0, k == n-1} { // forward, back
					if end {
						wantS++ // multiply by the reciprocal pivot
					} else {
						wantS += 3
					}
				}
			}
		}
		if f.Flops != wantF {
			t.Errorf("%d×%d factor flops = %d, want %d", chains, n, f.Flops, wantF)
		}
		if s.Flops != wantS {
			t.Errorf("%d×%d solve flops = %d, want %d", chains, n, s.Flops, wantS)
		}
		if f.BandFactorizations != int64(chains) {
			t.Errorf("%d×%d BandFactorizations = %d, want %d", chains, n, f.BandFactorizations, chains)
		}
	}
}
