package linalg

import "math"

// Cheap spectral condition estimation for the solver diagnostics. The MNA
// conductance matrices are SPD, so the extreme Rayleigh quotients of a few
// (inverse) power iterations bracket the spectrum well enough to tell a
// benign solve (κ ~ 10²) from a pathological one (κ ~ 10⁸, the signature
// of a diverging Newton linearisation with exploding cell conductances).
// This is a diagnostic estimate, not a bound: fixed iteration counts and a
// loose inner tolerance keep it to a small fraction of one Newton solve.

const (
	condPowerIters   = 16
	condInverseIters = 6
	condInnerTol     = 1e-4
	condInnerMaxIter = 400
)

// condStartVector returns the deterministic, non-degenerate start vector
// the estimators iterate from: mixed magnitudes so no eigenvector of a
// structured MNA matrix is exactly orthogonal to it, and fixed so the
// estimate is reproducible run to run (the replay contract).
func condStartVector(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1 + 0.1*float64(i%7)
	}
	return v
}

// rayleigh returns v·Av / v·v.
func rayleigh(a *CrossbarOp, v, av []float64, ops *OpCount) float64 {
	a.MulVec(v, av)
	ops.CountSpMV(a.NNZ(), a.Len())
	vv := Dot(v, v)
	ops.CountDot(a.Len())
	if vv == 0 {
		return 0
	}
	ops.CountDot(a.Len())
	ops.CountFlops(1)
	return Dot(v, av) / vv
}

// normalize scales v to unit 2-norm; returns false for a zero vector.
func normalize(v []float64, ops *OpCount) bool {
	n := Norm2(v)
	ops.CountNorm(len(v))
	if n == 0 || math.IsNaN(n) || math.IsInf(n, 0) {
		return false
	}
	for i := range v {
		v[i] /= n
	}
	ops.CountVecOp(len(v), 1)
	return true
}

// ExtremeEigenEstimates estimates the smallest and largest eigenvalues of
// a crossbar conductance matrix: λmax by power iteration, λmin by inverse power
// iteration with one loose inner CG solve per step. Both run a fixed,
// deterministic number of iterations from a fixed start vector. The power
// iterations, the inner CG solves, and the Rayleigh quotients all land in
// ops (nil counts nothing).
func ExtremeEigenEstimates(a *CrossbarOp, ops *OpCount) (lmin, lmax float64) {
	n := a.Len()
	nnz := a.NNZ()
	av := make([]float64, n)

	v := condStartVector(n)
	for i := 0; i < condPowerIters; i++ {
		a.MulVec(v, av)
		ops.CountSpMV(nnz, n)
		copy(v, av)
		ops.CountBytes(16 * int64(n))
		if !normalize(v, ops) {
			return 0, 0
		}
	}
	lmax = rayleigh(a, v, av, ops)

	w := condStartVector(n)
	normalize(w, ops)
	for i := 0; i < condInverseIters; i++ {
		// One loose CG solve approximates w ← A⁻¹·w; ErrNoConvergence is
		// fine here — the partial iterate still amplifies the small-λ
		// components, which is all inverse iteration needs.
		x, _, err := SolveCG(a, w, nil, CGOptions{Tol: condInnerTol, MaxIter: condInnerMaxIter, Ops: ops})
		if err != nil && x == nil {
			return 0, lmax
		}
		copy(w, x)
		ops.CountBytes(16 * int64(n))
		if !normalize(w, ops) {
			return 0, lmax
		}
	}
	lmin = rayleigh(a, w, av, ops)
	return lmin, lmax
}

// EstimateCond returns the estimated spectral condition number λmax/λmin
// of an SPD matrix, or +Inf when the smallest-eigenvalue estimate
// degenerates to zero (numerically singular as far as the estimator can
// tell). Its operations land in ops (nil counts nothing).
func EstimateCond(a *CrossbarOp, ops *OpCount) float64 {
	lmin, lmax := ExtremeEigenEstimates(a, ops)
	if lmin <= 0 {
		return math.Inf(1)
	}
	return lmax / lmin
}
