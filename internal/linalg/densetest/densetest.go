// Package densetest holds the dense LU factorisation the solver tests
// cross-check the crossbar operator and its CG and chain solvers against:
// an independent direct method with no structure to share a bug with.
// Only tests import it.
package densetest

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorisation encounters an (numerically)
// singular matrix.
var ErrSingular = errors.New("densetest: singular matrix")

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// NewDense allocates a zero Rows×Cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("densetest: invalid dense shape %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i,j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i,j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into element (i,j); the natural operation for MNA
// stamping.
func (m *Dense) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec computes y = M·x.
func (m *Dense) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("densetest: MulVec shape mismatch %d vs %d", len(x), m.Cols))
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// LU holds an LU factorisation with partial pivoting of a square matrix.
type LU struct {
	n   int
	lu  []float64
	piv []int
}

// FactorLU computes the LU factorisation of a square matrix with partial
// pivoting. The input is not modified.
func FactorLU(m *Dense) (*LU, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("densetest: LU needs a square matrix, got %dx%d", m.Rows, m.Cols)
	}
	n := m.Rows
	f := &LU{n: n, lu: make([]float64, n*n), piv: make([]int, n)}
	copy(f.lu, m.Data)
	for i := range f.piv {
		f.piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Pivot: largest magnitude in column k at or below the diagonal.
		p, maxv := k, math.Abs(f.lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(f.lu[i*n+k]); a > maxv {
				p, maxv = i, a
			}
		}
		if maxv == 0 || math.IsNaN(maxv) {
			return nil, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				f.lu[p*n+j], f.lu[k*n+j] = f.lu[k*n+j], f.lu[p*n+j]
			}
			f.piv[p], f.piv[k] = f.piv[k], f.piv[p]
		}
		pivot := f.lu[k*n+k]
		for i := k + 1; i < n; i++ {
			l := f.lu[i*n+k] / pivot
			f.lu[i*n+k] = l
			if l == 0 {
				continue
			}
			rowI := f.lu[i*n : i*n+n]
			rowK := f.lu[k*n : k*n+n]
			for j := k + 1; j < n; j++ {
				rowI[j] -= l * rowK[j]
			}
		}
	}
	return f, nil
}

// Solve computes x such that A·x = b for the factored matrix A.
func (f *LU) Solve(b []float64) ([]float64, error) {
	if len(b) != f.n {
		return nil, fmt.Errorf("densetest: rhs length %d, want %d", len(b), f.n)
	}
	n := f.n
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		row := f.lu[i*n : i*n+n]
		s := x[i]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		row := f.lu[i*n : i*n+n]
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return x, nil
}

// SolveDense is a convenience wrapper: factor A and solve A·x = b once.
func SolveDense(a *Dense, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}
