package circuit

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mnsim/internal/device"
)

// TestRestampMatchesModel: the restamp's fused device evaluation stamps
// every cell's conductance and companion current with the bits of
// Model.Conductance and Model.Current − g·vd. The crossbars are random,
// both devices, with solved operating points under mixed-sign drives and
// random node voltages that put |vd/Vc| on both sides of SinhCosh's 1/2
// branch boundary and past the middle branch's.
func TestRestampMatchesModel(t *testing.T) {
	var small, large, negative int
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, dev := range []device.Model{device.RRAM(), device.PCM()} {
			for _, sh := range [][2]int{{5, 9}, {12, 7}} {
				c := &Crossbar{M: sh[0], N: sh[1], R: randomR(sh[0], sh[1], dev, rng),
					WireR: 0.5 + 4*rng.Float64(), RSense: 1e3, Dev: dev}
				vin := make([]float64, c.M)
				for m := range vin {
					vin[m] = 2 * dev.ReadVoltage * (2*rng.Float64() - 1)
				}
				res, err := c.Solve(vin, SolveOptions{})
				if err != nil {
					t.Fatal(err)
				}
				wild := make([]float64, len(res.NodeV))
				for i := range wild {
					wild[i] = 4 * dev.NonlinearVc * (2*rng.Float64() - 1)
				}
				for k, v := range [][]float64{res.NodeV, wild} {
					name := fmt.Sprintf("seed %d %s %dx%d point %d", seed, dev.Name, c.M, c.N, k)
					a := c.assemble(vin, nil)
					base := c.sources(a, make([]float64, len(v)), nil)
					rhs := c.restamp(a, make([]float64, len(v)), v, nil)
					for m := 0; m < c.M; m++ {
						for n := 0; n < c.N; n++ {
							i, j := c.rowNode(m, n), c.colNode(m, n)
							vd, r := v[i]-v[j], c.R[m][n]
							g := dev.Conductance(vd, r)
							ieq := dev.Current(vd, r) - g*vd
							for _, e := range []struct {
								what      string
								got, want float64
							}{
								{"G", a.op.G[i], g},
								{"row rhs", rhs[i], base[i] - ieq},
								{"column rhs", rhs[j], base[j] + ieq},
							} {
								if math.Float64bits(e.got) != math.Float64bits(e.want) {
									t.Fatalf("%s cell (%d,%d): %s = %v, model gives %v", name, m, n, e.what, e.got, e.want)
								}
							}
							if math.Abs(vd/dev.NonlinearVc) <= 0.5 {
								small++
							} else {
								large++
							}
							if vd < 0 {
								negative++
							}
						}
					}
				}
			}
		}
	}
	if small == 0 || large == 0 || negative == 0 {
		t.Fatalf("coverage: %d cells at |vd/Vc| ≤ 1/2, %d above, %d negative; want all three", small, large, negative)
	}
}
