package device

import (
	"math"
	"math/rand"
	"testing"
)

// checkSinhCosh fails t unless SinhCosh(x) carries math.Sinh(x)'s and
// math.Cosh(x)'s exact bits.
func checkSinhCosh(t *testing.T, x float64) {
	t.Helper()
	s, c := SinhCosh(x)
	if ws := math.Sinh(x); math.Float64bits(s) != math.Float64bits(ws) {
		t.Errorf("SinhCosh(%v [%#016x]) sinh = %v [%#016x], math.Sinh = %v [%#016x]",
			x, math.Float64bits(x), s, math.Float64bits(s), ws, math.Float64bits(ws))
	}
	if wc := math.Cosh(x); math.Float64bits(c) != math.Float64bits(wc) {
		t.Errorf("SinhCosh(%v [%#016x]) cosh = %v [%#016x], math.Cosh = %v [%#016x]",
			x, math.Float64bits(x), c, math.Float64bits(c), wc, math.Float64bits(wc))
	}
}

// TestSinhCoshBits pins the fused kernel to the math package bit for bit:
// the signed zeros, both sides of the two branch boundaries (±1/2, ±21),
// overflow, the IEEE specials, subnormals, and a seeded sweep of the
// range the devices operate in. The Go spec lets a compiler fuse x*y+z
// into one rounding; if an architecture contracts SinhCosh's polynomial
// differently from math.sinh's, this test is what catches it.
func TestSinhCoshBits(t *testing.T) {
	xs := []float64{
		0, math.Copysign(0, -1),
		710, -710, 711, -711,
		math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1030, -0x1p-1030, 0x1p-1022, -0x1p-1022,
		math.MaxFloat64, -math.MaxFloat64,
	}
	for _, b := range []float64{0.5, 21} {
		for _, x := range []float64{b, -b} {
			xs = append(xs, x, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1)))
		}
	}
	for _, x := range xs {
		checkSinhCosh(t, x)
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 200000; i++ {
		checkSinhCosh(t, -25+50*rng.Float64())
	}
}

// FuzzSinhCosh extends TestSinhCoshBits' bit check to arbitrary inputs.
func FuzzSinhCosh(f *testing.F) {
	for _, x := range []float64{0, -0.5, 0.5, 0.375, 0.75, -21, 21, 710, math.Inf(-1), math.NaN()} {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		checkSinhCosh(t, x)
	})
}

// levelResistances returns every calibrated level resistance of m.
func levelResistances(t *testing.T, m Model) []float64 {
	t.Helper()
	rs := make([]float64, m.Levels())
	for lvl := range rs {
		r, err := m.LevelResistance(lvl)
		if err != nil {
			t.Fatal(err)
		}
		rs[lvl] = r
	}
	return rs
}

// TestDeviceGuards: across every level of both built-in devices and the
// drive range |v| ≤ 4·ReadVoltage, the conductance Newton stamps is finite
// and positive, the current finite, and the sinh law exactly odd in v and
// its derivative exactly even — by bits, not within a tolerance.
func TestDeviceGuards(t *testing.T) {
	for _, m := range []Model{RRAM(), PCM()} {
		vmax := 4 * m.ReadVoltage
		for _, r := range levelResistances(t, m) {
			for k := 0; k <= 64; k++ {
				v := vmax * float64(k) / 64
				g, i := m.Conductance(v, r), m.Current(v, r)
				if !(g > 0) || math.IsInf(g, 0) {
					t.Fatalf("%s r=%g v=%g: Conductance = %v, want finite and positive", m.Name, r, v, g)
				}
				if math.IsNaN(i) || math.IsInf(i, 0) {
					t.Fatalf("%s r=%g v=%g: Current = %v, want finite", m.Name, r, v, i)
				}
				if in := m.Current(-v, r); math.Float64bits(in) != math.Float64bits(-i) {
					t.Fatalf("%s r=%g: Current(%g) = %v, want -Current(%g) = %v", m.Name, r, -v, in, v, -i)
				}
				if gn := m.Conductance(-v, r); math.Float64bits(gn) != math.Float64bits(g) {
					t.Fatalf("%s r=%g: Conductance(%g) = %v, want Conductance(%g) = %v", m.Name, r, -v, gn, v, g)
				}
			}
		}
	}
}
