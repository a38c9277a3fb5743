package linalg

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// testOp is the well-conditioned crossbar operator the analytic op-count
// assertions solve: unit wire and sense conductances, cells at 0.5.
func testOp(m, n int) *CrossbarOp {
	a := NewCrossbarOp(m, n)
	a.StampWires(1, 1)
	for k := range a.G {
		a.SetCell(k, 0.5)
	}
	return a
}

// TestSolveCGOpCountAnalytic pins the accounting contract documented on
// CGOptions.Ops: for a solve converging in k iterations, SpMVs = k+1,
// Dots = 3k+1, Axpys = 2k, and the flop/byte totals follow the per-kernel
// cost model exactly.
func TestSolveCGOpCountAnalytic(t *testing.T) {
	a := testOp(4, 4)
	n, nnz := a.Len(), a.NNZ()
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + float64(i%5)
	}
	var ops OpCount
	_, k, err := SolveCG(a, b, nil, CGOptions{Ops: &ops})
	if err != nil {
		t.Fatal(err)
	}
	if k == 0 {
		t.Fatal("converged in zero iterations; test matrix degenerate")
	}
	if got, want := ops.SpMVs, int64(k+1); got != want {
		t.Errorf("SpMVs = %d, want %d (k = %d)", got, want, k)
	}
	if got, want := ops.Dots, int64(3*k+1); got != want {
		t.Errorf("Dots = %d, want %d (k = %d)", got, want, k)
	}
	if got, want := ops.Axpys, int64(2*k); got != want {
		t.Errorf("Axpys = %d, want %d (k = %d)", got, want, k)
	}
	nn, zz, kk := int64(n), int64(nnz), int64(k)
	wantFlops := (2*zz + 7*nn + 1) + kk*(2*zz+8*nn+3) + (kk-1)*(5*nn+1)
	if ops.Flops != wantFlops {
		t.Errorf("Flops = %d, want %d (n %d nnz %d k %d)", ops.Flops, wantFlops, n, nnz, k)
	}
	wantBytes := (16*zz + 128*nn) + kk*(16*zz+80*nn) + (kk-1)*64*nn
	if ops.Bytes != wantBytes {
		t.Errorf("Bytes = %d, want %d (n %d nnz %d k %d)", ops.Bytes, wantBytes, n, nnz, k)
	}
}

// TestSolveCGOpsBitIdentical asserts accounting is purely observational:
// the solution vector with accounting enabled is bit-identical to the one
// without.
func TestSolveCGOpsBitIdentical(t *testing.T) {
	a := testOp(3, 4)
	b := make([]float64, a.Len())
	for i := range b {
		b[i] = 0.5 + float64(i%3)
	}
	plain, k1, err := SolveCG(a, b, nil, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var ops OpCount
	counted, k2, err := SolveCG(a, b, nil, CGOptions{Ops: &ops})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("iteration counts differ: %d vs %d", k1, k2)
	}
	for i := range plain {
		//lint:ignore nofloateq accounting neutrality is an exact-equality contract by design
		if plain[i] != counted[i] {
			t.Fatalf("x[%d] differs with accounting: %v vs %v", i, plain[i], counted[i])
		}
	}
	if ops.Flops == 0 || ops.SpMVs == 0 {
		t.Errorf("accounting recorded nothing: %+v", ops)
	}
}

// TestOpCountNilSafe: every Count* method must be a no-op on a nil
// receiver — kernels thread possibly-nil pointers unconditionally.
func TestOpCountNilSafe(t *testing.T) {
	var o *OpCount
	o.CountSpMV(10, 5)
	o.CountDot(5)
	o.CountNorm(5)
	o.CountAxpy(5)
	o.CountVecOp(5, 2)
	o.CountFlops(7)
	o.CountBytes(7)
	o.CountChainFactor(2, 4)
	o.CountChainSolve(2, 4)
	o.CountPrecondApply()
	o.Add(&OpCount{Flops: 1})
	var dst OpCount
	dst.Add(nil)
	if dst != (OpCount{}) {
		t.Errorf("Add(nil) mutated receiver: %+v", dst)
	}
}

// TestEstimateCondOpsAccumulates: the condition estimator's power and
// inverse iterations must land in the accumulator.
func TestEstimateCondOpsAccumulates(t *testing.T) {
	a := testOp(2, 4)
	var ops OpCount
	plain := EstimateCond(a, nil)
	counted := EstimateCond(a, &ops)
	//lint:ignore nofloateq accounting neutrality is an exact-equality contract by design
	if plain != counted {
		t.Errorf("estimate changed with accounting: %v vs %v", plain, counted)
	}
	if ops.SpMVs < condPowerIters {
		t.Errorf("SpMVs = %d, want at least the %d power iterations", ops.SpMVs, condPowerIters)
	}
	if ops.Flops == 0 || ops.Dots == 0 {
		t.Errorf("accounting recorded nothing: %+v", ops)
	}
}

// pinnedSolves runs a block-Jacobi preconditioned SolveCG on a 16×16
// crossbar matrix, cold and then warm from a perturbed start, returning the
// preconditioner build's and each solve's operation counts, the
// iteration counts and an FNV-1a digest of both solutions' bits.
func pinnedSolves(t *testing.T) (build, cold, warm OpCount, itCold, itWarm int, digest uint64) {
	t.Helper()
	a, rhs := crossbarSystem(16, 16, 5, false)
	p, err := NewBlockJacobi(a, &build)
	if err != nil {
		t.Fatal(err)
	}
	x, itCold, err := SolveCG(a, rhs, nil, CGOptions{Tol: 1e-10, Precond: p, Ops: &cold})
	if err != nil {
		t.Fatal(err)
	}
	x0 := append([]float64(nil), x...)
	for i := range x0 {
		x0[i] *= 1 + 1e-3*math.Sin(float64(i))
	}
	xw, itWarm, err := SolveCG(a, rhs, x0, CGOptions{Tol: 1e-10, Precond: p, Ops: &warm})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range append(x, xw...) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return build, cold, warm, itCold, itWarm, h.Sum64()
}

// TestSolveCGOpCountPinned pins every OpCount field, the iteration counts
// and the solution bits of the 16×16 solves above. The values were
// recorded with per-chain scalar substitution, separate MulVec, Dot, AXPY
// and Norm2 passes and a sorted-column sparse matrix; the family kernels,
// fused CG passes and the crossbar stencil must reproduce them exactly;
// Bytes follow the operator's byte model (see OpCount).
func TestSolveCGOpCountPinned(t *testing.T) {
	build, cold, warm, itCold, itWarm, digest := pinnedSolves(t)
	pins := []struct {
		name      string
		got, want OpCount
	}{
		{"build", build, OpCount{Flops: 1952, Bytes: 32768, BandFactorizations: 32}},
		{"cold", cold, OpCount{Flops: 56720, SpMVs: 5, Dots: 13, Axpys: 8, Bytes: 617472, PrecondApplies: 4}},
		{"warm", warm, OpCount{Flops: 44686, SpMVs: 4, Dots: 11, Axpys: 6, Bytes: 487424, PrecondApplies: 3}},
	}
	for _, p := range pins {
		if p.got != p.want {
			t.Errorf("%s ops = %+v, want %+v", p.name, p.got, p.want)
		}
	}
	if itCold != 4 || itWarm != 3 {
		t.Errorf("iterations cold %d warm %d, want 4 and 3", itCold, itWarm)
	}
	if digest != 0xffc3c9a036cdbb88 {
		t.Errorf("solution digest %#x, want 0xffc3c9a036cdbb88", digest)
	}
}
