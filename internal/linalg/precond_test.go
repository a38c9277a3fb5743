package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// chainTrips stamps every chain of a family as a local tridiagonal chain
// (diag 4, off-diagonal −1).
func chainTrips(f Family) []Coord {
	var trips []Coord
	for i := f.Start; i < f.Start+f.Chains*f.Len; i++ {
		trips = append(trips, Coord{i, i, 4})
		if i >= f.Start+f.Chains {
			j := i - f.Chains
			trips = append(trips, Coord{i, j, -1}, Coord{j, i, -1})
		}
	}
	return trips
}

// TestBlockJacobiExactOnBlockDiagonal: when the matrix IS block diagonal
// over the given chains, Apply must be an exact solve — including for an
// interleaved family like the crossbar's column chains.
func TestBlockJacobiExactOnBlockDiagonal(t *testing.T) {
	fams := []Family{{Start: 0, Chains: 2, Len: 3}, {Start: 6, Chains: 1, Len: 2}}
	var trips []Coord
	for _, f := range fams {
		trips = append(trips, chainTrips(f)...)
	}
	a, err := NewCSR(8, trips)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewBlockJacobi(a, fams, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := []float64{1, -2, 3, 0.5, -1, 2, 0.25, -3}
	z := make([]float64, 8)
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
	fams := []Family{{Start: 0, Chains: 1, Len: 4}}
	trips := chainTrips(fams[0])
	a, err := NewCSR(4, trips)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewBlockJacobi(a, fams, nil)
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

// TestBlockJacobiValidation: families must partition the index set exactly.
func TestBlockJacobiValidation(t *testing.T) {
	a, err := NewCSR(4, chainTrips(Family{Start: 0, Chains: 1, Len: 4}))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		fams []Family
	}{
		{"overlap", []Family{{0, 1, 3}, {2, 1, 2}}},
		{"gap", []Family{{0, 1, 2}, {3, 1, 1}}},
		{"out of range", []Family{{0, 1, 5}}},
		{"zero len", []Family{{0, 1, 0}, {0, 1, 4}}},
		{"interleaved overlap", []Family{{0, 2, 2}, {3, 1, 1}}},
		{"zero chains", []Family{{0, 0, 4}, {0, 1, 4}}},
	}
	for _, tc := range cases {
		if _, err := NewBlockJacobi(a, tc.fams, nil); err == nil {
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
	fams := make([]Family, chains)
	var trips []Coord
	for c := 0; c < chains; c++ {
		fams[c] = Family{Start: c * length, Chains: 1, Len: length}
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
	p, err := NewBlockJacobi(a, fams, nil)
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
	fams := []Family{{Start: 0, Chains: 1, Len: 6}}
	a, err := NewCSR(6, chainTrips(fams[0]))
	if err != nil {
		t.Fatal(err)
	}
	var ops OpCount
	p, err := NewBlockJacobi(a, fams, &ops)
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
	a, err := NewCSR(3, chainTrips(Family{Start: 0, Chains: 1, Len: 3}))
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
	trips := chainTrips(Family{Start: 0, Chains: 1, Len: 32})
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

// randomChainSystem stamps a random diagonally dominant (so SPD) chain
// matrix over the families, which must partition [0, n).
func randomChainSystem(n int, fams []Family, rng *rand.Rand) (*CSR, []Coord) {
	var trips []Coord
	for _, f := range fams {
		for i := f.Start; i < f.Start+f.Chains*f.Len; i++ {
			trips = append(trips, Coord{i, i, 2.5 + rng.Float64()})
			if i >= f.Start+f.Chains {
				g := -rng.Float64()
				trips = append(trips, Coord{i, i - f.Chains, g}, Coord{i - f.Chains, i, g})
			}
		}
	}
	a, err := NewCSR(n, trips)
	if err != nil {
		panic(err)
	}
	return a, trips
}

// refChainFactor is the scalar bandwidth-1 Cholesky of one chain with
// diagonal a and subdiagonal b (b[0] unused), element by element in the
// order l = b/d′, d = √(a − l·l), 1/d — the oracle the interleaved family
// factor must match bit for bit.
func refChainFactor(a, b []float64) (d, l, rd []float64, err error) {
	n := len(a)
	d, l, rd = make([]float64, n), make([]float64, n), make([]float64, n)
	for k := 0; k < n; k++ {
		s := a[k]
		if k > 0 {
			l[k] = b[k] / d[k-1]
			s -= l[k] * l[k]
		}
		if !(s > 0) {
			return nil, nil, nil, ErrNotSPD
		}
		d[k] = math.Sqrt(s)
		rd[k] = 1 / d[k]
	}
	return d, l, rd, nil
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
		a    *CSR
		fams []Family
	}
	var systems []system
	for _, sh := range [][2]int{{1, 1}, {1, 6}, {7, 1}, {3, 8}, {9, 4}, {16, 16}} {
		for _, step := range []bool{false, true} {
			a, fams, _ := crossbarSystem(sh[0], sh[1], int64(sh[0]*100+sh[1]), step)
			systems = append(systems, system{fmt.Sprintf("crossbar %dx%d step=%v", sh[0], sh[1], step), a, fams})
		}
	}
	// Four single chains of one length are solved as a group; a run broken
	// by a length change is not.
	mixed := []Family{{0, 1, 5}, {5, 1, 5}, {10, 1, 5}, {15, 1, 5}, {20, 3, 1},
		{23, 1, 2}, {25, 1, 2}, {27, 1, 3}, {30, 1, 2}, {32, 1, 2}, {34, 4, 6},
		{58, 1, 1}, {59, 1, 1}, {60, 1, 1}, {61, 1, 1}}
	a, _ := randomChainSystem(62, mixed, rng)
	systems = append(systems, system{"random chains", a, mixed})
	for _, sys := range systems {
		p, err := NewBlockJacobi(sys.a, sys.fams, nil)
		if err != nil {
			t.Fatalf("%s: %v", sys.name, err)
		}
		r := make([]float64, sys.a.N)
		for i := range r {
			r[i] = rng.NormFloat64()
		}
		z := make([]float64, sys.a.N)
		p.Apply(r, z, nil)
		for _, f := range sys.fams {
			for c := 0; c < f.Chains; c++ {
				idx := make([]int, f.Len)
				diag, sub, x := make([]float64, f.Len), make([]float64, f.Len), make([]float64, f.Len)
				for k := range idx {
					i := f.Start + k*f.Chains + c
					idx[k], diag[k], x[k] = i, sys.a.at(i, i), r[i]
					if k > 0 {
						sub[k] = sys.a.at(i, i-f.Chains)
					}
				}
				d, l, rd, err := refChainFactor(diag, sub)
				if err != nil {
					t.Fatalf("%s: reference factor: %v", sys.name, err)
				}
				refChainSolve(l, rd, x)
				for k, i := range idx {
					same := math.Float64bits(p.diag[i]) == math.Float64bits(d[k]) &&
						math.Float64bits(p.rdiag[i]) == math.Float64bits(rd[k]) &&
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
		a, trips := randomChainSystem(n, fams, rng)
		dense := NewDense(n, n)
		for _, tr := range trips {
			dense.Set(tr.Row, tr.Col, dense.At(tr.Row, tr.Col)+tr.Val)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want, err := SolveDense(dense, b)
		if err != nil {
			t.Fatalf("%v dense: %v", sh, err)
		}
		p, err := NewBlockJacobi(a, fams, nil)
		if err != nil {
			t.Fatalf("%v factor: %v", sh, err)
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
		a, err := NewCSR(2, []Coord{{0, 0, 1}, {1, 1, -1}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewBlockJacobi(a, fams, nil); !errors.Is(err, ErrNotSPD) {
			t.Fatalf("%v: indefinite factor err = %v, want ErrNotSPD", fams, err)
		}
	}
	fams := []Family{{Start: 0, Chains: 1, Len: 3}}
	trips := chainTrips(fams[0])
	a, err := NewCSR(3, trips)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewBlockJacobi(a, fams, nil)
	if err != nil {
		t.Fatal(err)
	}
	trips[0].Val = math.NaN()
	if err := a.UpdateValues(trips); err != nil {
		t.Fatal(err)
	}
	if err := p.Refresh(a, nil); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("NaN pivot refresh err = %v, want ErrNotSPD", err)
	}
}

// TestBlockJacobiRefreshInPlace: refreshing against new values refactors
// in place with no allocation and is bit-identical to a fresh build.
func TestBlockJacobiRefreshInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fams := []Family{{0, 1, 4}, {4, 1, 4}, {8, 4, 3}}
	a, _ := randomChainSystem(20, fams, rng)
	p, err := NewBlockJacobi(a, fams, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, trips := randomChainSystem(20, fams, rng)
	if err := a.UpdateValues(trips); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(5, func() {
		if err := p.Refresh(a, nil); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Refresh allocates %v per run", n)
	}
	q, err := NewBlockJacobi(fresh, fams, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := make([]float64, 20)
	for i := range r {
		r[i] = 1 + float64(i)
	}
	zp, zq := make([]float64, 20), make([]float64, 20)
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
