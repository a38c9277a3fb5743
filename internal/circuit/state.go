// SolverState: reusable solver structures for a sequential stream of
// solves — the warm-start half of the fast solver core. A state carries
// the operator's buffers, the factored block preconditioner, the CG
// scratch, and the last converged operating point, so a solve stream such
// as one Table II pool worker's (validate.TableII) allocates once instead
// of per solve, and a re-solve of the same crossbar starts Newton from
// where the previous solve ended.
package circuit

import "mnsim/internal/linalg"

// SolverState is the cross-solve cache a caller threads through
// SolveOptions.State (and TransientOptions.State). It is owned by one
// goroutine at a time: the parallel engines give each pool worker its own
// state and never share one across workers. Use one state per strictly
// sequential solve stream; the stream may mix crossbars of any shape and
// settling runs.
//
// Numerically, reuse is conservative by construction: the matrix values
// and the preconditioner factorization are always rebuilt from the current
// crossbar at solve start, so the only floating-point input that crosses
// solves is the warm-start vector. The warm point is keyed to the
// *Crossbar whose solve stored it: only a later solve of that same
// crossbar value warm-starts from it, and a solve of any other crossbar
// through the state is bit-identical to a solve with a fresh state (or a
// nil one), reusing the state's buffers. A settling run never reads or
// writes the warm point.
//
// A converged solve through a state returns the stored point itself as
// Result.NodeV: it is valid until the next solve through the state, and a
// caller that keeps it longer copies it (WarmV returns a copy).
type SolverState struct {
	// Cached assembly (operator and source currents), valid for any
	// crossbar of the same shape; values are re-stamped every solve. The
	// right-hand side of each linear solve is built in work's residual
	// buffer.
	asm *assembly
	// Cached block preconditioner, tied to asm's shape and refactored
	// from the current operator at every solve.
	pre *linalg.BlockJacobi
	// v is the operating point of the last converged solve — the warm
	// start of the next solve of vc, the crossbar that stored it. A nil vc
	// means WarmState-seeded: trusted by length alone, for replays.
	v  []float64
	vc *Crossbar
	// vwarm is the scratch the solve copies v into at warm start, so the
	// Newton loop's working vector never aliases the stored operating point.
	vwarm []float64
	// work is the reusable CG scratch threaded into every inner linear
	// solve through this state (see linalg.CGWork for the aliasing
	// contract); it is what takes the warm re-solve path to near-zero
	// steady-state allocations.
	work linalg.CGWork
}

// NewSolverState returns an empty state ready to thread through
// SolveOptions.State.
func NewSolverState() *SolverState {
	return &SolverState{}
}

// WarmState builds a state holding only a warm-start operating point —
// how mnsim-replay reseeds the warm trajectory recorded in a snapshot.
func WarmState(v []float64) *SolverState {
	return &SolverState{v: append([]float64(nil), v...)}
}

// WarmV returns a copy of the state's current warm-start operating point
// (nil before the first converged solve).
func (s *SolverState) WarmV() []float64 {
	if s == nil || s.v == nil {
		return nil
	}
	return append([]float64(nil), s.v...)
}

// cgWork returns the state's reusable CG scratch. A nil state gets a fresh
// one, which the stateless solve then owns and shares across its CG calls.
func (s *SolverState) cgWork() *linalg.CGWork {
	if s == nil {
		return new(linalg.CGWork)
	}
	return &s.work
}

// warmCopy copies the stored operating point into the state's warm scratch
// and returns it — the allocation-free equivalent of cloning s.v.
func (s *SolverState) warmCopy() []float64 {
	s.vwarm = append(s.vwarm[:0], s.v...)
	return s.vwarm
}

// warmFor reports whether the state holds a warm-start vector usable for
// this crossbar: one stored by a solve of c, or a WarmState seed of c's
// length.
func (s *SolverState) warmFor(c *Crossbar) bool {
	if s == nil || len(s.v) != 2*c.M*c.N {
		return false
	}
	return s.vc == c || s.vc == nil
}

// store records a converged solve's operating point v as the warm start of
// the next solve of c through the state, reusing the stored vector's
// buffer, and returns the stored point. Without a state it returns v.
func (s *SolverState) store(c *Crossbar, v []float64) []float64 {
	if s == nil {
		return v
	}
	s.v = append(s.v[:0], v...)
	s.vc = c
	return s.v
}

// prepare returns c's MNA system stamped for vin and a block
// preconditioner factored from it. Through a state both are the state's
// own, reused when c has their shape and replaced (and kept) when it does
// not; either way they are bit-identical to a fresh assembly and
// factorization. A nil state allocates both.
func (s *SolverState) prepare(c *Crossbar, vin []float64, asmOps, preOps *linalg.OpCount) (*assembly, *linalg.BlockJacobi, error) {
	if s == nil {
		a := c.assemble(vin, asmOps)
		pre, err := linalg.NewBlockJacobi(a.op, preOps)
		return a, pre, err
	}
	if s.asm != nil && s.asm.op.M == c.M && s.asm.op.N == c.N {
		c.stampValues(s.asm, vin, asmOps)
	} else {
		s.asm, s.pre = c.assemble(vin, asmOps), nil
	}
	if s.pre != nil {
		return s.asm, s.pre, s.pre.Refresh(s.asm.op, preOps)
	}
	pre, err := linalg.NewBlockJacobi(s.asm.op, preOps)
	if err != nil {
		return nil, nil, err
	}
	s.pre = pre
	return s.asm, pre, nil
}
