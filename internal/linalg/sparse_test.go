package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func TestCSRAssemblySumsDuplicates(t *testing.T) {
	trips := []Coord{{0, 0, 1}, {0, 0, 2}, {1, 1, 5}, {0, 1, -1}}
	m, err := NewCSR(2, trips)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.at(0, 0); got != 3 {
		t.Errorf("(0,0) = %v, want 3", got)
	}
	if got := m.at(0, 1); got != -1 {
		t.Errorf("(0,1) = %v, want -1", got)
	}
	if got := m.at(1, 0); got != 0 {
		t.Errorf("(1,0) = %v, want 0", got)
	}
}

func TestCSRRejectsBadInput(t *testing.T) {
	if _, err := NewCSR(0, nil); err == nil {
		t.Error("dimension 0 should fail")
	}
	if _, err := NewCSR(2, []Coord{{2, 0, 1}}); err == nil {
		t.Error("out-of-range row should fail")
	}
	if _, err := NewCSR(2, []Coord{{0, -1, 1}}); err == nil {
		t.Error("negative col should fail")
	}
}

func TestCSRMulVec(t *testing.T) {
	m, err := NewCSR(3, []Coord{{0, 0, 2}, {1, 1, 3}, {2, 0, 1}, {2, 2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	y := m.MulVec([]float64{1, 2, 3}, nil)
	want := []float64{2, 6, 13}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("MulVec = %v, want %v", y, want)
		}
	}
}

func TestCSREmptyRow(t *testing.T) {
	// Row 1 has no entries; RowPtr must still be consistent.
	m, err := NewCSR(3, []Coord{{0, 0, 1}, {2, 2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	y := m.MulVec([]float64{5, 6, 7}, nil)
	if y[0] != 5 || y[1] != 0 || y[2] != 7 {
		t.Fatalf("MulVec = %v", y)
	}
}

func TestCSRUpdateValues(t *testing.T) {
	trips := []Coord{{0, 0, 1}, {0, 0, 1}, {1, 1, 2}}
	m, err := NewCSR(2, trips)
	if err != nil {
		t.Fatal(err)
	}
	trips[0].Val = 5
	trips[1].Val = 5
	trips[2].Val = 7
	if err := m.UpdateValues(trips); err != nil {
		t.Fatal(err)
	}
	if m.at(0, 0) != 10 || m.at(1, 1) != 7 {
		t.Fatalf("after update: (0,0)=%v (1,1)=%v", m.at(0, 0), m.at(1, 1))
	}
	if err := m.UpdateValues(trips[:1]); err == nil {
		t.Fatal("pattern mismatch should fail")
	}
}

func TestDiagonal(t *testing.T) {
	m, err := NewCSR(3, []Coord{{0, 0, 4}, {1, 2, 9}, {2, 2, 6}})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Diagonal()
	if d[0] != 4 || d[1] != 0 || d[2] != 6 {
		t.Fatalf("Diagonal = %v", d)
	}
}

// AddDiagonal on a built matrix must give the same bits as rebuilding
// with the diagonal appended as trailing triplets, duplicates included.
func TestAddDiagonalMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 40
	_, trips := randomSPD(n, rng)
	d := make([]float64, n)
	for i := range d {
		trips = append(trips, Coord{i, i, rng.Float64() / 3}) // a duplicate diagonal stamp
		d[i] = rng.Float64() * 1e3
	}
	m, err := NewCSR(n, trips)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddDiagonal(d); err != nil {
		t.Fatal(err)
	}
	all := append([]Coord(nil), trips...)
	for i, v := range d {
		all = append(all, Coord{i, i, v})
	}
	want, err := NewCSR(n, all)
	if err != nil {
		t.Fatal(err)
	}
	for k := range want.Vals {
		if math.Float64bits(m.Vals[k]) != math.Float64bits(want.Vals[k]) {
			t.Fatalf("slot %d: in place %v, rebuilt %v", k, m.Vals[k], want.Vals[k])
		}
	}
	if err := m.AddDiagonal(d[:1]); err == nil {
		t.Error("short diagonal accepted")
	}
	hole, err := NewCSR(2, []Coord{{0, 0, 1}, {0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := hole.AddDiagonal([]float64{1, 1}); err == nil {
		t.Error("missing diagonal entry accepted")
	}
}

// randomSPD builds a random symmetric diagonally dominant sparse matrix.
func randomSPD(n int, rng *rand.Rand) (*CSR, []Coord) {
	var trips []Coord
	rowSum := make([]float64, n)
	for i := 0; i < n; i++ {
		for k := 0; k < 3; k++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			v := -math.Abs(rng.NormFloat64())
			trips = append(trips, Coord{i, j, v}, Coord{j, i, v})
			rowSum[i] += -v
			rowSum[j] += -v
		}
	}
	for i := 0; i < n; i++ {
		trips = append(trips, Coord{i, i, rowSum[i] + 1 + rng.Float64()})
	}
	m, err := NewCSR(n, trips)
	if err != nil {
		panic(err)
	}
	return m, trips
}

func TestSolveCGRandomSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		n := 10 + rng.Intn(200)
		m, _ := randomSPD(n, rng)
		if !m.IsSymmetric(1e-12) {
			t.Fatal("test matrix should be symmetric")
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, iters, err := SolveCG(m, b, nil, CGOptions{})
		if err != nil {
			t.Fatalf("trial %d (n=%d): %v", trial, n, err)
		}
		if iters <= 0 {
			t.Fatalf("trial %d: reported %d iterations", trial, iters)
		}
		r := m.MulVec(x, nil)
		for i := range r {
			r[i] -= b[i]
		}
		if Norm2(r) > 1e-8*(1+Norm2(b)) {
			t.Fatalf("trial %d: residual %v", trial, Norm2(r))
		}
	}
}

func TestSolveCGZeroRHS(t *testing.T) {
	m, _ := NewCSR(2, []Coord{{0, 0, 1}, {1, 1, 1}})
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
	m, _ := randomSPD(100, rng)
	b := make([]float64, 100)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
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
	m, _ := NewCSR(2, []Coord{{0, 0, 1}, {1, 1, 1}})
	if _, _, err := SolveCG(m, []float64{1}, nil, CGOptions{}); err == nil {
		t.Error("short rhs should fail")
	}
	zeroDiag, _ := NewCSR(2, []Coord{{0, 1, 1}, {1, 0, 1}})
	if _, _, err := SolveCG(zeroDiag, []float64{1, 1}, nil, CGOptions{}); err == nil {
		t.Error("zero diagonal should fail")
	}
	if _, _, err := SolveCG(m, []float64{1, 1}, nil, CGOptions{MaxIter: 0, Tol: 1e-30}); err != nil {
		// MaxIter 0 defaults to 10N which is plenty for identity.
		t.Errorf("identity solve failed: %v", err)
	}
}

func TestIsSymmetric(t *testing.T) {
	sym, _ := NewCSR(2, []Coord{{0, 1, 2}, {1, 0, 2}, {0, 0, 1}, {1, 1, 1}})
	if !sym.IsSymmetric(0) {
		t.Error("symmetric matrix reported asymmetric")
	}
	asym, _ := NewCSR(2, []Coord{{0, 1, 2}, {1, 0, 3}, {0, 0, 1}, {1, 1, 1}})
	if asym.IsSymmetric(1e-12) {
		t.Error("asymmetric matrix reported symmetric")
	}
}

// fusedCases are the matrices the fused CG kernels are checked on: crossbar
// systems with M ≠ N (DC and stepping), a random SPD pattern, and a matrix
// with an empty row.
func fusedCases(rng *rand.Rand) []*CSR {
	dc, _, _ := crossbarSystem(5, 9, 1, false)
	step, _, _ := crossbarSystem(12, 3, 2, true)
	spd, _ := randomSPD(40, rng)
	empty, err := NewCSR(3, []Coord{{0, 0, 1.5}, {0, 2, -0.25}, {2, 0, -0.25}, {2, 2, 3}})
	if err != nil {
		panic(err)
	}
	return []*CSR{dc, step, spd, empty}
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
		x := randomVec(a.N, rng)
		want := a.MulVec(x, nil)
		wantDot := Dot(x, want)
		y := randomVec(a.N, rng) // stale contents must not leak through
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
		b, x := randomVec(a.N, rng), randomVec(a.N, rng)
		want := a.MulVec(x, nil)
		for i := range want {
			want[i] = b[i] - want[i]
		}
		r := randomVec(a.N, rng)
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
