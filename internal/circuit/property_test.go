package circuit

import (
	"math"
	"math/rand"
	"testing"

	"mnsim/internal/device"
)

// As the wire resistance shrinks, the outputs approach the zero-wire
// path's (the collapsed-node bisection) linearly in WireR, in both Linear
// and non-linear mode, down to the solver's tolerance floor: 10·Tol, ten
// times the Newton step tolerance. The range stops at 1 mΩ: below it the
// CG stopping rule no longer resolves the cell currents (see CHANGES.md).
func TestOutputsContinuousAsWireRVanishes(t *testing.T) {
	const floor = 10 * 1e-9 // 10 × the default SolveOptions.Tol
	rng := rand.New(rand.NewSource(3))
	dev := device.RRAM()
	for _, linear := range []bool{true, false} {
		for _, sz := range [][2]int{{4, 3}, {8, 8}, {16, 5}} {
			m, n := sz[0], sz[1]
			r := randomR(m, n, dev, rng)
			vin := make([]float64, m)
			for i := range vin {
				vin[i] = 0.3 * rng.Float64()
			}
			solve := func(wireR float64) []float64 {
				c := &Crossbar{M: m, N: n, R: r, WireR: wireR, RSense: 150, Dev: dev, Linear: linear}
				res, err := c.Solve(vin, SolveOptions{})
				if err != nil {
					t.Fatalf("linear=%v %dx%d WireR=%g: %v", linear, m, n, wireR, err)
				}
				return res.VOut
			}
			ideal := solve(0)
			gap := func(wireR float64) float64 {
				d := 0.0
				for k, v := range solve(wireR) {
					d = math.Max(d, math.Abs(v-ideal[k]))
				}
				return d
			}
			// The gap at 1 Ω sets the slope; each decade down must shrink
			// the gap with it.
			slope := gap(1)
			if slope == 0 || slope > 1e-3 {
				t.Fatalf("linear=%v %dx%d: gap %g V at WireR = 1 Ω", linear, m, n, slope)
			}
			for _, w := range []float64{0.1, 0.01, 1e-3} {
				if g := gap(w); g > 2*slope*w+floor {
					t.Errorf("linear=%v %dx%d WireR=%g: gap %.3g V to the zero-wire outputs, want ≤ %.3g",
						linear, m, n, w, g, 2*slope*w+floor)
				}
			}
		}
	}
}

// Raising one cell's conductance moves its column's output the way the
// cell's current flows: up when the cell's row node sits above its column
// node, down when below. So under non-negative inputs the output is not
// monotone in every cell: a cell on a row driven below the column's
// voltage (a 0 V row, say) sinks column current and pulls the output
// down. Both directions occur in every trial's mix of inputs.
func TestOutputFollowsCellCurrentDirection(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dev := device.RRAM()
	for trial := 0; trial < 24; trial++ {
		linear := trial%2 == 0
		m, n := 2+rng.Intn(8), 2+rng.Intn(8)
		r := randomR(m, n, dev, rng)
		// Non-negative inputs: 0 V, millivolt and full-scale rows.
		vin := make([]float64, m)
		for i := range vin {
			vin[i] = []float64{0, 1e-3, 0.3}[i%3] * rng.Float64()
		}
		wireR := []float64{0.1, 1, 5}[rng.Intn(3)]
		rSense := []float64{50, 150, 1000}[rng.Intn(3)]
		c := &Crossbar{M: m, N: n, R: r, WireR: wireR, RSense: rSense, Dev: dev, Linear: linear}
		base, err := c.Solve(vin, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		up, down := 0, 0
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				raised := &Crossbar{M: m, N: n, R: make([][]float64, m), WireR: wireR, RSense: rSense, Dev: dev, Linear: linear}
				for k := range r {
					raised.R[k] = append([]float64(nil), r[k]...)
				}
				raised.R[i][j] /= 2
				res, err := raised.Solve(vin, SolveOptions{})
				if err != nil {
					t.Fatal(err)
				}
				drive := base.NodeV[c.rowNode(i, j)] - base.NodeV[c.colNode(i, j)]
				moved := res.VOut[j] - base.VOut[j]
				if moved == 0 || (moved > 0) != (drive > 0) {
					t.Errorf("trial %d (linear=%v, %dx%d) cell (%d,%d), input %.3g V: output moved %.3g V with the cell driven %.3g V row to column",
						trial, linear, m, n, i, j, vin[i], moved, drive)
				}
				if drive > 0 {
					up++
				} else {
					down++
				}
			}
		}
		if up == 0 || down == 0 {
			t.Errorf("trial %d: %d cells raised the output and %d lowered it; want both", trial, up, down)
		}
	}
}

// In Linear mode the network is linear and homogeneous: scaling every
// input by k scales every output by k and the source power by k². A
// power-of-two or sign scale is exact in floating point at every step of
// the solve (each CG scalar is a ratio in which the scale cancels), so
// the outputs are k times the unscaled ones bit for bit; any other scale
// holds to the CG tolerance.
func TestLinearOutputsScaleWithInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dev := device.RRAM()
	for _, sz := range [][2]int{{4, 3}, {8, 8}, {16, 5}} {
		m, n := sz[0], sz[1]
		c := &Crossbar{M: m, N: n, R: randomR(m, n, dev, rng), WireR: 0.1 + 5*rng.Float64(), RSense: 150, Dev: dev, Linear: true}
		vin := make([]float64, m)
		for i := range vin {
			vin[i] = 0.3 * rng.Float64()
		}
		base, err := c.Solve(vin, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		peak := 0.0
		for _, v := range base.VOut {
			if a := math.Abs(v); a > peak {
				peak = a
			}
		}
		for _, k := range []float64{2, 0.25, -1, 3, 0.1} {
			exact := k == 2 || k == 0.25 || k == -1
			scaled := make([]float64, m)
			for i, v := range vin {
				scaled[i] = k * v
			}
			res, err := c.Solve(scaled, SolveOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for j, v := range res.VOut {
				want := k * base.VOut[j]
				if exact && math.Float64bits(v) != math.Float64bits(want) {
					t.Errorf("%dx%d k=%g: VOut[%d] = %v, want %v bit for bit", m, n, k, j, v, want)
				}
				if d := math.Abs(v - want); d > 1e-8*math.Abs(k)*peak {
					t.Errorf("%dx%d k=%g: VOut[%d] = %v, k·VOut = %v (off by %.3g V)", m, n, k, j, v, want, d)
				}
			}
			if want := k * k * base.Power; math.Abs(res.Power-want) > 1e-8*math.Abs(want) {
				t.Errorf("%dx%d k=%g: power %v W, k²·power %v W", m, n, k, res.Power, want)
			}
		}
	}
}

// With ideal wires the crossbar computes I = G·V: each column's current
// into its sense resistor is Σ_m g_mn·(v_m − V_n), which IdealOut solves
// for V_n in closed form. As the wire resistance shrinks, Linear-mode
// outputs approach IdealOut linearly in WireR, down to the solver's
// tolerance floor of 10·Tol. The range stops at 1 mΩ, where CG's stopping
// rule stops resolving the cell currents (ROADMAP item 6).
func TestLinearOutputsApproachIdealOut(t *testing.T) {
	const floor = 10 * 1e-9 // 10 × the default SolveOptions.Tol
	rng := rand.New(rand.NewSource(6))
	dev := device.RRAM()
	for _, sz := range [][2]int{{4, 3}, {8, 8}, {16, 5}} {
		m, n := sz[0], sz[1]
		r := randomR(m, n, dev, rng)
		vin := make([]float64, m)
		for i := range vin {
			vin[i] = 0.3 * rng.Float64()
		}
		c := &Crossbar{M: m, N: n, R: r, RSense: 150, Dev: dev, Linear: true}
		ideal, err := c.IdealOut(vin)
		if err != nil {
			t.Fatal(err)
		}
		gap := func(wireR float64) float64 {
			c.WireR = wireR
			res, err := c.Solve(vin, SolveOptions{})
			if err != nil {
				t.Fatalf("%dx%d WireR=%g: %v", m, n, wireR, err)
			}
			d := 0.0
			for k, v := range res.VOut {
				d = math.Max(d, math.Abs(v-ideal[k]))
			}
			return d
		}
		// The gap at 1 Ω sets the slope; each decade down must shrink the
		// gap with it.
		slope := gap(1)
		if slope == 0 || slope > 1e-3 {
			t.Fatalf("%dx%d: gap %g V to IdealOut at WireR = 1 Ω", m, n, slope)
		}
		for _, w := range []float64{0.1, 0.01, 1e-3} {
			if g := gap(w); g > 2*slope*w+floor {
				t.Errorf("%dx%d WireR=%g: gap %.3g V to IdealOut, want ≤ %.3g", m, n, w, g, 2*slope*w+floor)
			}
		}
	}
}
