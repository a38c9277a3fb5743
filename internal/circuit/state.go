// SolverState: reusable solver structures for repeated solves of the same
// crossbar — the warm-start half of the fast solver core. A state carries
// the operator's buffers, the factored block preconditioner, and the last
// converged operating point, so a solve stream such as Table II validation
// (validate.TableII) allocates once instead of per solve and starts Newton
// from where the previous solve ended.
package circuit

import "mnsim/internal/linalg"

// SolverState is the cross-solve cache a caller threads through
// SolveOptions.State. It is owned by one goroutine at a time: the
// parallel engines (DSE, Monte-Carlo) deliberately do not share states
// across workers, because the sequential-equals-parallel determinism
// contract requires every evaluation's numerics to be independent of
// execution order. Use one state per strictly sequential solve stream.
//
// Numerically, reuse is conservative by construction: the matrix values
// and the preconditioner factorization are always rebuilt from the current
// crossbar at solve start, so the only floating-point input that crosses
// solves is the warm-start vector. A solve with a fresh state is
// bit-identical to a solve with a nil one.
type SolverState struct {
	// Cached assembly (operator, source currents and right-hand-side
	// buffer), valid for any crossbar of the same shape; values are
	// re-stamped every solve.
	asm *assembly
	// Cached block preconditioner, tied to asm's shape and refactored
	// from the current operator at every solve.
	pre *linalg.BlockJacobi
	// v is the operating point of the last converged solve — the warm
	// start of the next one. vM/vN record the crossbar shape it came from:
	// a vector from a different topology is never reused even when the
	// node counts coincide (e.g. 6×4 vs 4×6). Zero shape means
	// WarmState-seeded — trusted by length alone, for replays.
	v      []float64
	vM, vN int
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
// this crossbar.
func (s *SolverState) warmFor(c *Crossbar) bool {
	if s == nil || len(s.v) != 2*c.M*c.N {
		return false
	}
	return (s.vM == c.M && s.vN == c.N) || (s.vM == 0 && s.vN == 0)
}

// store records a converged solve's operating point as the warm start of
// the next solve through the state, reusing the stored vector's buffer.
func (s *SolverState) store(c *Crossbar, res *Result) {
	if s == nil {
		return
	}
	s.v = append(s.v[:0], res.NodeV...)
	s.vM, s.vN = c.M, c.N
}
