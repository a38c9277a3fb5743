package device

import (
	"math"
	"math/rand"
	"testing"
)

// BenchmarkDeviceEval times one Newton linearisation of 4,096 cells (a
// 64×64 crossbar) at Table II's operating points: RRAM level resistances
// and cell voltages over the [0, 2·ReadVoltage] drive range. "fused" is
// the restamp's form — sinh(Vread/Vc) hoisted, one CellPrefactor and one
// SinhCosh per cell; "model" is the Current plus Conductance pair it
// replaces. Both produce the same bits.
func BenchmarkDeviceEval(b *testing.B) {
	const cells = 4096
	m := RRAM()
	rng := rand.New(rand.NewSource(1))
	r, v := make([]float64, cells), make([]float64, cells)
	for k := range r {
		var err error
		if r[k], err = m.LevelResistance(rng.Intn(m.Levels())); err != nil {
			b.Fatal(err)
		}
		v[k] = 2 * m.ReadVoltage * rng.Float64()
	}
	g, ieq := make([]float64, cells), make([]float64, cells)
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vr, vc := m.ReadVoltage, m.NonlinearVc
			sr := math.Sinh(vr / vc)
			for k, rk := range r {
				a := CellPrefactor(vr, sr, rk)
				s, ch := SinhCosh(v[k] / vc)
				g[k] = a / vc * ch
				ieq[k] = float64(a*s) - g[k]*v[k]
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cells), "ns/cell")
	})
	b.Run("model", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k, rk := range r {
				g[k] = m.Conductance(v[k], rk)
				ieq[k] = m.Current(v[k], rk) - g[k]*v[k]
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cells), "ns/cell")
	})
}
