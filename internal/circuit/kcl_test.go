package circuit

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mnsim/internal/device"
	"mnsim/internal/linalg"
)

// kclBalance measures how well a solved operating point v obeys
// Kirchhoff's current law. The net current leaving every node is the wire
// network's — the operator with every cell open, applied to v, minus the
// source injections — plus the device currents. It returns the largest
// per-node imbalance, the largest branch current, and the imbalance the
// default tolerances allow at any node (see TestKCLProperty).
func kclBalance(c *Crossbar, vin, v []float64) (worst, branch, bound float64) {
	const tol, cgTol = 1e-9, 1e-10 // SolveOptions' documented defaults
	gw, gs := c.wireG(), 1/c.RSense
	wires := linalg.NewCrossbarOp(c.M, c.N)
	wires.StampWires(gw, gs)
	for k := range wires.G {
		wires.SetCell(k/wires.N, k%wires.N, 0)
	}
	f := wires.MulVec(v, nil)
	src := make([]float64, len(v)) // the source injections, as sources writes them
	for m := 0; m < c.M; m++ {
		src[c.rowNode(m, 0)] = gw * vin[m]
		branch = math.Max(branch, math.Abs(gw*(vin[m]-v[c.rowNode(m, 0)])))
		for n := 0; n+1 < c.N; n++ {
			branch = math.Max(branch, math.Abs(gw*(v[c.rowNode(m, n)]-v[c.rowNode(m, n+1)])))
		}
	}
	for n := 0; n < c.N; n++ {
		for m := 0; m+1 < c.M; m++ {
			branch = math.Max(branch, math.Abs(gw*(v[c.colNode(m, n)]-v[c.colNode(m+1, n)])))
		}
		branch = math.Max(branch, math.Abs(gs*v[c.colNode(c.M-1, n)]))
	}
	ieq := make([]float64, len(v)) // the Newton companion sources
	quad := 0.0                    // the largest linearisation remainder
	for m := 0; m < c.M; m++ {
		for n := 0; n < c.N; n++ {
			i, j := c.rowNode(m, n), c.colNode(m, n)
			vd := v[i] - v[j]
			cur := vd / c.R[m][n]
			if !c.Linear {
				cur = c.Dev.Current(vd, c.R[m][n])
				ieq[i] = cur - c.Dev.Conductance(vd, c.R[m][n])*vd
				ieq[j] = -ieq[i]
				// d²I/dv² = I/Vc² for the sinh law; the last Newton step moved
				// vd by at most 2·Tol.
				quad = math.Max(quad, 0.5*math.Abs(cur)/(c.Dev.NonlinearVc*c.Dev.NonlinearVc)*(2*tol)*(2*tol))
			}
			f[i] += cur
			f[j] -= cur
			branch = math.Max(branch, math.Abs(cur))
		}
	}
	for i := range f {
		worst = math.Max(worst, math.Abs(f[i]-src[i]))
	}
	return worst, branch, 2*cgTol*(linalg.Norm2(src)+linalg.Norm2(ieq)) + quad
}

// TestKCLProperty: every converged solve balances the current at every
// node, over random crossbars with M ≠ N, linear and sinh devices, and
// several seeds.
//
// The bound follows from the documented defaults, not from observation.
// The returned v solves the last linear system A·v = b (Newton's, or the
// setup solve's in linear mode) to CG's stop rule ‖b − A·v‖₂ < CGTol·‖b‖₂,
// and the imbalance at v is −(b − A·v) plus, for the sinh device, each
// cell's linearisation remainder ½·|d²I/dv²|·Δvd², with |Δvd| < 2·Tol after
// the last Newton step. b is the source injections plus the companion
// sources; the factor 2 on the CG term absorbs the companion sources'
// shift over the last step, the drift of CG's recurrence residual from the
// true one and the rounding of this test's own sums, each orders of
// magnitude smaller than CGTol·‖b‖₂ here.
func TestKCLProperty(t *testing.T) {
	dev := device.RRAM()
	worstRatio := 0.0
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, sh := range [][2]int{{3, 7}, {8, 5}, {16, 12}} {
			for _, linear := range []bool{true, false} {
				c := &Crossbar{M: sh[0], N: sh[1], R: randomR(sh[0], sh[1], dev, rng),
					WireR: 0.1 + 4.9*rng.Float64(), RSense: 500 + 2000*rng.Float64(), Dev: dev, Linear: linear}
				vin := make([]float64, c.M)
				for m := range vin {
					vin[m] = dev.ReadVoltage * rng.Float64()
					if seed%2 == 0 {
						vin[m] = dev.ReadVoltage * (2*rng.Float64() - 1) // mixed signs
					}
				}
				name := fmt.Sprintf("seed %d %dx%d linear=%v", seed, c.M, c.N, linear)
				res, err := c.Solve(vin, SolveOptions{})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				worst, branch, bound := kclBalance(c, vin, res.NodeV)
				if worst > bound {
					t.Errorf("%s: KCL imbalance %.3g A exceeds the bound %.3g A (largest branch current %.3g A)",
						name, worst, bound, branch)
				}
				worstRatio = math.Max(worstRatio, worst/branch)
				t.Logf("%s: imbalance/branch %.3g, bound/branch %.3g", name, worst/branch, bound/branch)
			}
		}
	}
	t.Logf("worst normalized imbalance %.3g", worstRatio)
}
