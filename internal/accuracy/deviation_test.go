package accuracy

import (
	"math"
	"math/rand"
	"testing"

	"mnsim/internal/crossbar"
)

// avgDeviationLoop is Eq. 14 as a plain loop over the k levels, the
// reference AvgDigitalDeviation's counting must reproduce bit for bit.
func avgDeviationLoop(eps float64, k int) float64 {
	if k < 2 {
		return 0
	}
	sum := 0.0
	e := math.Abs(eps)
	for i := 0; i < k; i++ {
		sum += math.Floor(float64(i)*e + 0.5)
	}
	return sum / float64(k)
}

func checkAvgDeviation(t *testing.T, eps float64, k int) {
	t.Helper()
	got, want := AvgDigitalDeviation(eps, k), avgDeviationLoop(eps, k)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("AvgDigitalDeviation(%v [%#x], %d) = %v, loop gives %v", eps, math.Float64bits(eps), k, got, want)
	}
}

// TestAvgDigitalDeviationMatchesLoop pins the counted Eq. 14 sum to the
// loop over every level, by bits: at the exact term boundaries ε = (j+½)/i
// and their float neighbours (where the real-valued guess ⌈(j−½)/ε⌉ must
// be corrected), on seeded draws of k that are mostly not powers of two,
// in the loop-fallback regime t(k−1) > k, and at ±0, ±Inf and NaN.
func TestAvgDigitalDeviationMatchesLoop(t *testing.T) {
	for _, k := range []int{-1, 0, 1, 2, 3, 4, 5, 64, 255, 256, 257, 4096} {
		for _, eps := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
			math.SmallestNonzeroFloat64, 1e-300, 0.5, -0.5, 1, 1.5, 3, 1e10, math.MaxFloat64} {
			checkAvgDeviation(t, eps, k)
		}
	}
	rng := rand.New(rand.NewSource(18))
	for n := 0; n < 3000; n++ {
		k := 2 + rng.Intn(4095)
		// Term boundaries: level i reaches j+1 exactly at ε = (j+½)/i.
		i := 1 + rng.Intn(k-1)
		j := rng.Intn(1 + 2*k/i)
		b := (float64(j) + 0.5) / float64(i)
		for _, eps := range []float64{b, math.Nextafter(b, 0), math.Nextafter(b, 2), -b} {
			checkAvgDeviation(t, eps, k)
		}
		// Log-uniform ε over the small rates the sweep sees and up to the
		// fallback regime, t(k−1) > k once ε > ~1.
		checkAvgDeviation(t, math.Pow(10, -5+6*rng.Float64()), k)
		checkAvgDeviation(t, 1+10*rng.Float64(), k)
	}
}

// refEvalLayer is EvalLayer as it was written before LayerError was split
// out: clip, Eval, merge, then propagate and quantize.
func refEvalLayer(p crossbar.Params, rows, cols, k int, inDelta float64) LayerReport {
	pb := p
	if rows < pb.Rows {
		pb.Rows = rows
	}
	if cols < pb.Cols {
		pb.Cols = cols
	}
	e, err := Eval(pb)
	if err != nil {
		panic(err)
	}
	merged := Merged(e, (rows+p.Rows-1)/p.Rows)
	worstEps := Propagate(inDelta, merged.Worst)
	avgEps := Propagate(inDelta, merged.Avg)
	return LayerReport{Eps: merged, InDelta: inDelta,
		MaxDeviationLSB: MaxDigitalDeviation(worstEps, k),
		WorstRate:       MaxErrorRate(worstEps, k),
		AvgRate:         AvgErrorRate(avgEps, k)}
}

func sameReport(a, b LayerReport) bool {
	bits := math.Float64bits
	return bits(a.Eps.Worst) == bits(b.Eps.Worst) && bits(a.Eps.Avg) == bits(b.Eps.Avg) &&
		bits(a.InDelta) == bits(b.InDelta) && bits(a.WorstRate) == bits(b.WorstRate) &&
		bits(a.AvgRate) == bits(b.AvgRate) && a.MaxDeviationLSB == b.MaxDeviationLSB
}

// TestEvalNetworkMatchesTwoPathReference holds EvalNetwork, which now
// evaluates each layer's error once, to the formulation that ran EvalLayer
// twice per layer (once per propagation path), field by field in bits.
func TestEvalNetworkMatchesTwoPathReference(t *testing.T) {
	shapes := [][2]int{{27, 64}, {576, 64}, {576, 128}, {1152, 256}, {4608, 512}, {25088, 4096}, {4096, 1000}}
	for _, size := range []int{8, 32, 128, 512} {
		for _, node := range []int{18, 45, 90} {
			p := refParams(size, node)
			for _, k := range []int{16, 256} {
				reps, final, err := EvalNetwork(p, shapes, k)
				if err != nil {
					t.Fatal(err)
				}
				avg, worst := 0.0, 0.0
				for i, s := range shapes {
					ref := refEvalLayer(p, s[0], s[1], k, avg)
					if !sameReport(mustEvalLayer(t, p, s, k, avg), ref) {
						t.Fatalf("size %d node %d k %d layer %d: EvalLayer differs from the reference", size, node, k, i)
					}
					want := ref
					w := refEvalLayer(p, s[0], s[1], k, worst)
					want.WorstRate, want.MaxDeviationLSB = w.WorstRate, w.MaxDeviationLSB
					if !sameReport(reps[i], want) {
						t.Fatalf("size %d node %d k %d layer %d: %+v, want %+v", size, node, k, i, reps[i], want)
					}
					avg, worst = want.AvgRate, want.WorstRate
				}
				if math.Float64bits(final.Avg) != math.Float64bits(avg) || math.Float64bits(final.Worst) != math.Float64bits(worst) {
					t.Fatalf("size %d node %d k %d: final %+v, want avg %v worst %v", size, node, k, final, avg, worst)
				}
			}
		}
	}
}

func mustEvalLayer(t *testing.T, p crossbar.Params, s [2]int, k int, inDelta float64) LayerReport {
	t.Helper()
	rep, err := EvalLayer(p, s[0], s[1], k, inDelta)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}
