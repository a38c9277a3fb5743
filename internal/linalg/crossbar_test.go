package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// coord is one (row, col, value) stamp of a triplet stream.
type coord struct {
	row, col int
	val      float64
}

// assemblyTrips is the triplet stream a generic MNA assembly stamps for
// the operator's crossbar, in its historical order: each row wire from its
// source, each column wire ending in the sense conductance gs, every cell,
// and then caps (nil for none) as trailing diagonal stamps.
func assemblyTrips(a *CrossbarOp, gs float64, caps []float64) []coord {
	m, n, gw := a.M, a.N, a.GW
	row := func(i, j int) int { return i*n + j }
	col := func(i, j int) int { return m*n + i*n + j }
	var trips []coord
	link := func(i, j int, g float64) {
		trips = append(trips, coord{i, i, g}, coord{j, j, g}, coord{i, j, -g}, coord{j, i, -g})
	}
	for i := 0; i < m; i++ {
		trips = append(trips, coord{row(i, 0), row(i, 0), gw})
		for j := 0; j+1 < n; j++ {
			link(row(i, j), row(i, j+1), gw)
		}
	}
	for j := 0; j < n; j++ {
		for i := 0; i+1 < m; i++ {
			link(col(i, j), col(i+1, j), gw)
		}
		trips = append(trips, coord{col(m-1, j), col(m-1, j), gs})
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			link(row(i, j), col(i, j), a.G[i*n+j])
		}
	}
	for i, c := range caps {
		trips = append(trips, coord{i, i, c})
	}
	return trips
}

// sortedRows is the reference matrix the operator must reproduce bit for
// bit: each row's stamps in ascending column order, duplicates summed from
// zero in stream order, as a sorted-column sparse matrix holds them.
type sortedRows [][]coord

func newSortedRows(n int, trips []coord) sortedRows {
	rows := make(sortedRows, n)
	for _, t := range trips {
		rows[t.row] = append(rows[t.row], t)
	}
	for i, r := range rows {
		sort.SliceStable(r, func(p, q int) bool { return r[p].col < r[q].col })
		var merged []coord
		for _, t := range r {
			if len(merged) == 0 || merged[len(merged)-1].col != t.col {
				merged = append(merged, coord{i, t.col, 0})
			}
			merged[len(merged)-1].val += t.val
		}
		rows[i] = merged
	}
	return rows
}

// mulVec sums each row's entries from zero in column order.
func (r sortedRows) mulVec(x []float64) []float64 {
	y := make([]float64, len(r))
	for i, row := range r {
		s := 0.0
		for _, e := range row {
			s += e.val * x[e.col]
		}
		y[i] = s
	}
	return y
}

// at returns entry (i, j), zero where the row has none.
func (r sortedRows) at(i, j int) float64 {
	for _, e := range r[i] {
		if e.col == j {
			return e.val
		}
	}
	return 0
}

// randomOp stamps an m×n operator with random wire, sense and cell
// conductances, shifts its diagonal by random row and column C/dt terms
// when step is set, and returns it with its reference matrix.
func randomOp(m, n int, step bool, rng *rand.Rand) (*CrossbarOp, sortedRows) {
	a := NewCrossbarOp(m, n)
	gs := 1e-4 + rng.Float64()*1e-2
	a.StampWires(0.5+rng.Float64()*3, gs)
	for k := range a.G {
		a.SetCell(k/a.N, k%a.N, 1e-7+rng.Float64()*1e-4)
	}
	var caps []float64
	if step {
		row, col := rng.Float64()*1e-2, rng.Float64()*1e-2
		a.SetDiagShift(row, col)
		caps = shiftCaps(a, row, col)
	}
	return a, newSortedRows(a.Len(), assemblyTrips(a, gs, caps))
}

// shiftCaps is a diagonal shift spread per node: row on a's row nodes, col
// on its column nodes.
func shiftCaps(a *CrossbarOp, row, col float64) []float64 {
	caps := make([]float64, a.Len())
	for i := range caps {
		caps[i] = row
		if i >= len(a.G) {
			caps[i] = col
		}
	}
	return caps
}

// sameDiag reports the first entry where a's derived diagonal differs in
// bits from ref's, or −1.
func sameDiag(a *CrossbarOp, ref sortedRows) int {
	for i, d := range a.diag() {
		if math.Float64bits(d) != math.Float64bits(ref.at(i, i)) {
			return i
		}
	}
	return -1
}

// opShapes covers single rows and columns, M ≠ N both ways, and a square.
var opShapes = [][2]int{{1, 1}, {1, 7}, {7, 1}, {2, 2}, {5, 9}, {9, 5}, {16, 16}}

// testVec is a random vector with exact zeros of both signs mixed in, so
// the kernels' zero-signed sums are checked too.
func testVec(n int, rng *rand.Rand) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch rng.Intn(6) {
		case 0:
			v[i] = 0
		case 1:
			v[i] = math.Copysign(0, -1)
		default:
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

// TestCrossbarOpMatchesSortedRows pins the derived diagonal, MulVec,
// residual and mulVecDot by Float64bits against the reference, on every
// shape, with and without the C/dt shift of the diagonal, at random and
// all-zero x.
func TestCrossbarOpMatchesSortedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, sh := range opShapes {
		for _, step := range []bool{false, true} {
			name := fmt.Sprintf("%dx%d step=%v", sh[0], sh[1], step)
			a, ref := randomOp(sh[0], sh[1], step, rng)
			if i := sameDiag(a, ref); i >= 0 {
				t.Fatalf("%s: derived diagonal entry %d = %v, reference %v", name, i, a.diag()[i], ref.at(i, i))
			}
			for _, x := range [][]float64{testVec(a.Len(), rng), make([]float64, a.Len())} {
				want := ref.mulVec(x)
				if y := a.MulVec(x, nil); !sameBits(y, want) {
					t.Fatalf("%s: MulVec differs from the sorted-row sums", name)
				}
				wantDot := 0.0
				for i := range want {
					wantDot += x[i] * want[i]
				}
				y := testVec(a.Len(), rng) // stale contents must not leak through
				if dot := a.mulVecDot(x, y); !sameBits(y, want) || math.Float64bits(dot) != math.Float64bits(wantDot) {
					t.Fatalf("%s: mulVecDot differs from the sorted-row sums (dot %v vs %v)", name, dot, wantDot)
				}
				b := testVec(a.Len(), rng)
				wantR, wantRR, wantBB := make([]float64, a.Len()), 0.0, 0.0
				for i := range want {
					wantR[i] = b[i] - want[i]
					wantRR += wantR[i] * wantR[i]
					wantBB += b[i] * b[i]
				}
				r := testVec(a.Len(), rng)
				rr, bb := a.residual(b, x, r, testVec(a.N, rng))
				if !sameBits(r, wantR) || math.Float64bits(rr) != math.Float64bits(wantRR) || math.Float64bits(bb) != math.Float64bits(wantBB) {
					t.Fatalf("%s: residual differs from the sorted-row sums", name)
				}
			}
		}
	}
}

// TestCrossbarOpMulVec checks the stencil on a 1×2 crossbar worked by
// hand: unit wire and sense conductances, cells 0.5 and 0.25.
func TestCrossbarOpMulVec(t *testing.T) {
	a := NewCrossbarOp(1, 2)
	a.StampWires(1, 1)
	a.SetCell(0, 0, 0.5)
	a.SetCell(0, 1, 0.25)
	// Rows: r0 [2.5 −1 −0.5 0], r1 [−1 1.25 0 −0.25],
	// c0 [−0.5 0 1.5 0], c1 [0 −0.25 0 1.25].
	y := a.MulVec([]float64{1, 2, 3, 4}, make([]float64, 1))
	want := []float64{-1, 0.5, 4, 4.5}
	if !sameBits(y, want) {
		t.Fatalf("MulVec = %v, want %v", y, want)
	}
	if a.NNZ() != 10 {
		t.Errorf("NNZ = %d, want 10", a.NNZ())
	}
}

// TestDiagonal: StampWires and SetCell sum every diagonal entry exactly as
// the reference does, including a re-stamp over an earlier one.
func TestDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, sh := range opShapes {
		a, _ := randomOp(sh[0], sh[1], false, rng)
		gs := 1 / (1 + rng.Float64())
		a.StampWires(1/(0.1+rng.Float64()), gs)
		for k := range a.G {
			a.SetCell(k/a.N, k%a.N, rng.Float64())
		}
		ref := newSortedRows(a.Len(), assemblyTrips(a, gs, nil))
		if i := sameDiag(a, ref); i >= 0 {
			t.Fatalf("%v: diagonal entry %d = %v, reference %v", sh, i, a.diag()[i], ref.at(i, i))
		}
	}
}

// TestAddDiagonalMatchesRebuild: a diagonal shift (the transient's C/dt)
// gives the bits of a rebuild that stamps it last; a re-stamp clears it,
// and a second shift replaces the first rather than adding to it.
func TestAddDiagonalMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, sh := range opShapes {
		a, ref := randomOp(sh[0], sh[1], true, rng)
		if i := sameDiag(a, ref); i >= 0 {
			t.Fatalf("%v: shifted diagonal entry %d = %v, rebuilt %v", sh, i, a.diag()[i], ref.at(i, i))
		}
		gs := 1 / (1 + rng.Float64())
		a.StampWires(a.GW, gs)
		if i := sameDiag(a, newSortedRows(a.Len(), assemblyTrips(a, gs, nil))); i >= 0 {
			t.Fatalf("%v: re-stamped diagonal entry %d = %v keeps a shift", sh, i, a.diag()[i])
		}
		a.SetDiagShift(1e-3, 2e-3)
		a.SetDiagShift(3e-3, 5e-3)
		if i := sameDiag(a, newSortedRows(a.Len(), assemblyTrips(a, gs, shiftCaps(a, 3e-3, 5e-3)))); i >= 0 {
			t.Fatalf("%v: replaced shift, diagonal entry %d = %v", sh, i, a.diag()[i])
		}
	}
}

// TestIsSymmetric: the entries the stencil applies, probed column by
// column with unit vectors, form a symmetric matrix equal to the
// reference — the row-node and column-node walks agree on every coupling.
func TestIsSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, sh := range opShapes[:6] {
		a, ref := randomOp(sh[0], sh[1], false, rng)
		n := a.Len()
		cols := make([][]float64, n)
		for j := range cols {
			e := make([]float64, n)
			e[j] = 1
			cols[j] = a.MulVec(e, nil)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Float64bits(cols[j][i]) != math.Float64bits(cols[i][j]) {
					t.Fatalf("%v: A[%d][%d] = %v, A[%d][%d] = %v", sh, i, j, cols[j][i], j, i, cols[i][j])
				}
				if math.Float64bits(cols[j][i]) != math.Float64bits(ref.at(i, j)) {
					t.Fatalf("%v: A[%d][%d] = %v, reference %v", sh, i, j, cols[j][i], ref.at(i, j))
				}
			}
		}
	}
}

// TestNewCrossbarOpPanicsOnBadShape: an empty crossbar has no operator.
func TestNewCrossbarOpPanicsOnBadShape(t *testing.T) {
	for _, sh := range [][2]int{{0, 1}, {1, 0}, {-1, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCrossbarOp(%d, %d) did not panic", sh[0], sh[1])
				}
			}()
			NewCrossbarOp(sh[0], sh[1])
		}()
	}
}
