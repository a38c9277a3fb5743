package linalg

import (
	"math"
	"testing"
)

// diagOp is a 1×len(rows) crossbar operator with no wire or cell
// coupling: the diagonal matrix with rows on the row nodes and col on
// every column node, whose wire-only sums they are.
func diagOp(rows []float64, col float64) *CrossbarOp {
	a := NewCrossbarOp(1, len(rows))
	copy(a.wire, rows)
	a.wire[len(rows)] = col
	return a
}

// A diagonal matrix has a known spectrum: the estimate must land close.
func TestEstimateCondDiagonal(t *testing.T) {
	d := make([]float64, 10)
	for i := range d {
		d[i] = float64(i + 1)
	}
	// Column nodes at 1: the spectrum is 1..10, κ = 10.
	cond := EstimateCond(diagOp(d, 1), nil)
	if cond < 7 || cond > 13 {
		t.Fatalf("diagonal κ estimate %.3g, want ~10", cond)
	}
}

// The 1-D Laplacian tridiag(-1, 2, -1) with n = 8 has
// λ_k = 2 − 2·cos(kπ/9): λmin ≈ 0.1206, λmax ≈ 3.879, κ ≈ 32.2.
func TestEstimateCondTridiagonal(t *testing.T) {
	// A 1×8 operator with unit wire coupling and no cells: its row nodes
	// form the Laplacian, and its decoupled column nodes, pinned at 2, add
	// an eigenvalue inside the Laplacian's spectrum.
	const n = 8
	m := NewCrossbarOp(1, n)
	m.GW = 1
	m.SetDiagShift(2, 2)
	lmin, lmax := ExtremeEigenEstimates(m, nil)
	wantMin := 2 - 2*math.Cos(math.Pi/9)
	wantMax := 2 - 2*math.Cos(8*math.Pi/9)
	if lmax < 0.9*wantMax || lmax > 1.1*wantMax {
		t.Fatalf("λmax estimate %.4g, want ~%.4g", lmax, wantMax)
	}
	if lmin < 0.7*wantMin || lmin > 1.3*wantMin {
		t.Fatalf("λmin estimate %.4g, want ~%.4g", lmin, wantMin)
	}
	cond := EstimateCond(m, nil)
	want := wantMax / wantMin
	if cond < 0.6*want || cond > 1.6*want {
		t.Fatalf("κ estimate %.4g, want ~%.4g", cond, want)
	}
}

// The estimate is deterministic: identical inputs give identical bits —
// the replay contract extends to diagnostics.
func TestEstimateCondDeterministic(t *testing.T) {
	d := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	a := EstimateCond(diagOp(d, 5), nil)
	b := EstimateCond(diagOp(d, 5), nil)
	if a != b {
		t.Fatalf("estimate not deterministic: %v vs %v", a, b)
	}
}
