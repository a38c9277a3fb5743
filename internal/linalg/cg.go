package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoConvergence is returned when an iterative solve exhausts its
// iteration budget before reaching the requested tolerance.
var ErrNoConvergence = errors.New("linalg: iterative solver did not converge")

// BreakdownError is the typed form of a CG breakdown: the Krylov recurrence
// met a direction with non-positive curvature (p·A·p ≤ 0 — the matrix is
// not SPD, usually a bad stamp) or a non-finite scalar. errors.Is matches
// ErrNoConvergence, so existing no-convergence handling catches breakdowns
// too; errors.As recovers the iteration index and offending curvature.
type BreakdownError struct {
	// Iter is the iteration (1-based) at which the breakdown was detected.
	Iter int
	// PAp is the curvature p·A·p that triggered the guard (may be a
	// finite non-positive value or NaN/Inf).
	PAp float64
}

func (e *BreakdownError) Error() string {
	return fmt.Sprintf("linalg: CG breakdown at iteration %d (p·A·p = %g; matrix not SPD?)", e.Iter, e.PAp)
}

// Unwrap makes errors.Is(err, ErrNoConvergence) hold.
func (e *BreakdownError) Unwrap() error { return ErrNoConvergence }

// CGOptions tunes SolveCG.
type CGOptions struct {
	// Tol is the relative residual target ‖b−Ax‖/‖b‖; default 1e-10.
	Tol float64
	// MaxIter bounds iterations; default 10·N.
	MaxIter int
	// Precond supplies the preconditioner; nil selects the classic Jacobi
	// (diagonal) fallback built from the matrix. Structure-aware callers
	// (the crossbar solver) pass a BlockJacobi over their wire chains.
	Precond Preconditioner
	// Ops, when non-nil, accumulates the solve's operation counts. The
	// accounting is exact and purely observational: enabling it never
	// changes a computed float. On the default Jacobi path the setup costs
	// one SpMV, two dots (‖b‖ and r·z), the diagonal scan and inversion,
	// and three streaming vector passes; each of the k iterations costs one
	// SpMV, one dot, one norm, two AXPYs and two scalar divisions, and
	// every iteration except a converged last one adds the preconditioner
	// apply, one more dot, and the direction update. In totals:
	// SpMVs = k+1, Dots = 3k+1, Axpys = 2k. A non-nil x0 adds one norm
	// (the warm-start early-exit check); a custom Precond charges its own
	// apply cost and bumps PrecondApplies.
	Ops *OpCount
	// Work, when non-nil, supplies reusable scratch for the solve's working
	// vectors, eliminating the four length-N allocations a cold call makes.
	// See CGWork for the aliasing contract on the returned solution.
	Work *CGWork
}

// CGWork is reusable scratch storage for SolveCG: the length-N working
// vectors a solve needs, five in all — two solution buffers, the residual,
// the search direction, and one buffer that holds the preconditioned
// residual z and the product A·p in turn — plus the residual pass's
// scratch of one crossbar row (N floats) of A·x. A·p lives from the SpMV
// to the residual update and z from the preconditioner apply to the
// direction update, so the two never hold a value at the same time. With
// CGOptions.Work set,
// the solution SolveCG returns aliases Work storage; successive solves
// alternate between the two solution buffers, so the previous result
// stays valid across exactly one further call — the v/vNew ping-pong a
// Newton loop needs. Callers keeping a solution longer than that must copy
// it.
//
// The residual buffer can also carry the right-hand side in: a caller
// builds b in RHS(n) and passes it to SolveCG, which reads b there before
// it overwrites it with the residual. Like every solver structure in this
// package, a CGWork serves one goroutine at a time.
type CGWork struct {
	xs      [2][]float64
	flip    int
	r, z, p []float64
	ax      []float64
}

// RHS returns the work's residual buffer sized n, for the caller to write
// the right-hand side of the next SolveCG through this work into and pass
// as b. Its contents are unspecified until written, and the solve
// overwrites them, so it holds b for one solve only.
func (w *CGWork) RHS(n int) []float64 {
	w.r = growVec(w.r, n)
	return w.r
}

// take returns the working vectors sized n, growing the underlying buffers
// as needed, and the residual pass's scratch sized blk; x is zeroed,
// matching a fresh allocation, z is also the A·p buffer, and r keeps its
// contents when it is already sized (an aliased b). A nil receiver returns
// all nils, and SolveCG falls back to per-call allocation.
func (w *CGWork) take(n, blk int) (x, r, z, p, ax []float64) {
	if w == nil {
		return nil, nil, nil, nil, nil
	}
	w.xs[w.flip] = growVec(w.xs[w.flip], n)
	x = w.xs[w.flip]
	w.flip ^= 1
	for i := range x {
		x[i] = 0
	}
	w.r = growVec(w.r, n)
	w.z = growVec(w.z, n)
	w.p = growVec(w.p, n)
	w.ax = growVec(w.ax, blk)
	return x, w.r, w.z, w.p, w.ax
}

// growVec returns buf resized to n, reallocating only when capacity is
// short. Contents are unspecified — every SolveCG use fully overwrites the
// vector before reading it (a right-hand side built in RHS is read as b,
// the one input), which is what keeps buffer reuse bit-identical to fresh
// allocation.
func growVec(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// SolveCG solves A·x = b for a crossbar conductance matrix, which is
// symmetric positive definite, with preconditioned conjugate gradients (CGOptions.Precond; Jacobi fallback).
// Resistor-network conductance matrices are SPD and strongly diagonally
// dominant, so CG converges in far fewer iterations than N. x0 may be nil;
// a non-nil x0 that already meets the tolerance is returned bit-unchanged
// after zero iterations — the contract warm-started re-solves rely on.
//
// b may be opt.Work's residual buffer (CGWork.RHS): the first residual
// pass reads each b[i], folding it into ‖b‖, before it writes r[i], so the
// solve returns the bits and iteration count it returns for a separate b.
// b is not read again and, when aliased, holds the residual afterwards.
// Any other b is left unchanged.
//
// The iteration loop is the simulator's hottest code: with CGWork
// scratch it runs allocation-free (PR 9's bench gate pins allocs/op),
// and the //lint:hotpath annotation makes the compiler's escape analysis
// enforce that. The remaining suppressions below mark the deliberate
// cold paths: error formatting, the Work==nil fallback allocations, and
// breakdown error construction.
//
//lint:hotpath
func SolveCG(a *CrossbarOp, b, x0 []float64, opt CGOptions) ([]float64, int, error) {
	n := a.Len()
	if len(b) != n {
		//lint:ignore noalloc error-path fmt args box once per misuse, never in the solve loop
		return nil, 0, fmt.Errorf("linalg: rhs length %d, want %d", len(b), n)
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-10
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 10 * n
	}
	ops := opt.Ops
	nnz := a.NNZ()
	// With scratch the vectors come pre-sized from the work pool (x zeroed);
	// without it each is allocated at its historical site below, so cold
	// early-exit paths stay as cheap as they always were.
	x, wr, wz, wp, ax := opt.Work.take(n, a.N)
	if x == nil {
		//lint:ignore noalloc cold fallback when no CGWork scratch is supplied
		x = make([]float64, n)
	}
	if x0 != nil {
		copy(x, x0)
		ops.CountBytes(16 * int64(n))
	}
	pre := opt.Precond
	if pre == nil {
		jp, err := newJacobiPrecond(a, ops)
		if err != nil {
			return nil, 0, err
		}
		pre = jp
	}
	r := wr
	if r == nil {
		//lint:ignore noalloc cold fallback when no CGWork scratch is supplied
		r = make([]float64, n)
	}
	if ax == nil {
		//lint:ignore noalloc cold fallback when no CGWork scratch is supplied
		ax = make([]float64, a.N)
	}
	// One pass: r = b − A·x, r·r and b·b, whose root is Norm2(b)'s bits.
	rr, bb := a.residual(b, x, r, ax)
	ops.CountSpMV(nnz, n)
	ops.CountVecOp(n, 1) // r = b − A·x
	normB := math.Sqrt(bb)
	ops.CountNorm(n)
	if normB == 0 {
		// b = 0 → the unique SPD solution is x = 0. Never echo a non-zero
		// x0 back: a warm-started solve against a zero RHS must not return
		// the stale warm start.
		for i := range x {
			x[i] = 0
		}
		return x, 0, nil
	}
	if x0 != nil {
		// Warm-start early exit: an x0 already inside the tolerance is the
		// answer, returned bit-unchanged.
		res0 := math.Sqrt(rr) / normB
		ops.CountNorm(n)
		ops.CountFlops(1)
		if res0 < opt.Tol {
			return x, 0, nil
		}
	}
	z := wz
	if z == nil {
		//lint:ignore noalloc cold fallback when no CGWork scratch is supplied
		z = make([]float64, n)
	}
	pre.Apply(r, z, ops)
	p := wp
	if p == nil {
		//lint:ignore noalloc cold fallback when no CGWork scratch is supplied
		p = make([]float64, n)
	}
	copy(p, z)
	ops.CountBytes(16 * int64(n))
	rz := Dot(r, z)
	ops.CountDot(n)
	// z is dead until the next apply: its storage holds A·p meanwhile.
	ap := z
	for it := 1; it <= opt.MaxIter; it++ {
		pap := a.mulVecDot(p, ap)
		ops.CountSpMV(nnz, n)
		ops.CountDot(n)
		alpha := rz / pap
		ops.CountFlops(1) // α division
		if pap <= 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
			// Breakdown guard: non-positive curvature means the matrix is
			// not SPD (a bad stamp); without this guard α goes NaN and no
			// exit condition ever fires until MaxIter.
			//lint:ignore noalloc breakdown error allocates once on the failure path only
			return x, it, &BreakdownError{Iter: it, PAp: pap}
		}
		rr = updateCG(alpha, p, ap, x, r)
		ops.CountAxpy(n)
		ops.CountAxpy(n)
		res := math.Sqrt(rr) / normB
		ops.CountNorm(n)
		ops.CountFlops(1) // relative-residual division
		if math.IsNaN(res) || math.IsInf(res, 0) {
			//lint:ignore noalloc breakdown error allocates once on the failure path only
			return x, it, &BreakdownError{Iter: it, PAp: pap}
		}
		if res < opt.Tol {
			return x, it, nil
		}
		pre.Apply(r, z, ops)
		rzNew := Dot(r, z)
		ops.CountDot(n)
		beta := rzNew / rz
		ops.CountFlops(1) // β division
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
		ops.CountVecOp(n, 2) // direction update p = z + β·p
	}
	return x, opt.MaxIter, ErrNoConvergence
}

// updateCG applies CG's two vector updates, x += α·p and r += (−α)·ap, and
// returns the new r·r, bit-identical to Norm2(r)'s sum of squares, in one
// pass.
//
//lint:hotpath
func updateCG(alpha float64, p, ap, x, r []float64) float64 {
	na := -alpha
	p = p[:len(x)]
	ap = ap[:len(x)]
	r = r[:len(x)]
	rr := 0.0
	for i := range x {
		x[i] += alpha * p[i]
		ri := r[i] + na*ap[i]
		r[i] = ri
		rr += ri * ri
	}
	return rr
}
