package circuit

import (
	"math"
	"math/rand"
	"testing"

	"mnsim/internal/device"
	"mnsim/internal/linalg/densetest"
)

// denseSolve solves the same linear crossbar with an independently built
// dense MNA system (direct LU, no crossbar operator, no CG) — a from-scratch cross-check
// of the sparse solver's stamping, including rectangular shapes.
func denseSolve(t *testing.T, c *Crossbar, vin []float64) []float64 {
	t.Helper()
	n2 := 2 * c.M * c.N
	row := func(m, n int) int { return m*c.N + n }
	col := func(m, n int) int { return c.M*c.N + m*c.N + n }
	a := densetest.NewDense(n2, n2)
	b := make([]float64, n2)
	gw := 1 / c.WireR
	stamp := func(i, j int, g float64) {
		a.Add(i, i, g)
		a.Add(j, j, g)
		a.Add(i, j, -g)
		a.Add(j, i, -g)
	}
	for m := 0; m < c.M; m++ {
		first := row(m, 0)
		a.Add(first, first, gw)
		b[first] += gw * vin[m]
		for n := 0; n+1 < c.N; n++ {
			stamp(row(m, n), row(m, n+1), gw)
		}
	}
	gs := 1 / c.RSense
	for n := 0; n < c.N; n++ {
		for m := 0; m+1 < c.M; m++ {
			stamp(col(m, n), col(m+1, n), gw)
		}
		last := col(c.M-1, n)
		a.Add(last, last, gs)
	}
	for m := 0; m < c.M; m++ {
		for n := 0; n < c.N; n++ {
			stamp(row(m, n), col(m, n), 1/c.R[m][n])
		}
	}
	x, err := densetest.SolveDense(a, b)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, c.N)
	for n := 0; n < c.N; n++ {
		out[n] = x[col(c.M-1, n)]
	}
	return out
}

// Rectangular crossbars (M≠N in both directions) must match the
// independent dense solution element for element.
func TestSparseSolverMatchesDenseMNA(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dev := device.RRAM()
	for _, shape := range [][2]int{{3, 7}, {7, 3}, {5, 5}, {1, 6}, {6, 1}, {12, 4}} {
		m, n := shape[0], shape[1]
		c := &Crossbar{M: m, N: n, R: randomR(m, n, dev, rng), WireR: 0.8, RSense: 1500, Linear: true}
		vin := make([]float64, m)
		for i := range vin {
			vin[i] = 0.05 + 0.25*rng.Float64()
		}
		res, err := c.Solve(vin, SolveOptions{})
		if err != nil {
			t.Fatalf("%dx%d: %v", m, n, err)
		}
		want := denseSolve(t, c, vin)
		for j := range want {
			// The sparse path stops at CG's relative-residual tolerance,
			// so match to 1e-6 of the output scale.
			if math.Abs(res.VOut[j]-want[j]) > 1e-6*(1+math.Abs(want[j])) {
				t.Fatalf("%dx%d col %d: sparse %v vs dense %v", m, n, j, res.VOut[j], want[j])
			}
		}
	}
}
