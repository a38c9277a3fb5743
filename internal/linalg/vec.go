// Package linalg provides the small numerical core used by the circuit-level
// solver: the crossbar's modified-nodal-analysis conductance matrix as a
// matrix-free operator (CrossbarOp), solved by conjugate gradients with a
// wire-chain block-Jacobi preconditioner. The dense LU oracle the solver
// is cross-checked against lives in the test-only densetest package.
//
// Only the standard library is used.
package linalg

import "math"

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
