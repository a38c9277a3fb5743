package dse

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mnsim/internal/arch"
	"mnsim/internal/device"
	"mnsim/internal/nn"
	"mnsim/internal/periph"
	"mnsim/internal/tech"
)

// paretoPairwise is the front by its definition: every candidate checked
// against every other, as Pareto computed it before the sorted pass.
func paretoPairwise(cands []Candidate) []Candidate {
	var front []Candidate
	for _, c := range cands {
		dominated := false
		for _, d := range cands {
			betterArea := d.Report.AreaMM2 <= c.Report.AreaMM2
			betterLat := d.Report.PipelineCycle <= c.Report.PipelineCycle
			strict := d.Report.AreaMM2 < c.Report.AreaMM2 || d.Report.PipelineCycle < c.Report.PipelineCycle
			if betterArea && betterLat && strict {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, c)
		}
	}
	sort.Slice(front, func(i, j int) bool { return front[i].Report.AreaMM2 < front[j].Report.AreaMM2 })
	return front
}

// sameFront compares two fronts in order by grid point, the identity of
// a candidate here (NaN metrics rule out comparing the reports).
func sameFront(t *testing.T, got, want []Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("front of %d, pairwise definition gives %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.CrossbarSize != w.CrossbarSize || g.Parallelism != w.Parallelism || g.WireNode != w.WireNode {
			t.Fatalf("front[%d] = %d/p%d/%d, pairwise definition has %d/p%d/%d",
				i, g.CrossbarSize, g.Parallelism, g.WireNode, w.CrossbarSize, w.Parallelism, w.WireNode)
		}
	}
}

// TestParetoMatchesPairwise holds Pareto to the pairwise definition, in
// order as well as in membership: on small integer grids full of equal
// areas, equal latencies, duplicates, ±0 and NaNs; on the sets of
// prefilterCases, which spread over the prefilter's buckets; and on one
// large random set.
func TestParetoMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	values := []float64{0, math.Copysign(0, -1), 1, 2, 3, 4, math.Inf(1), math.NaN()}
	pick := func() float64 {
		if rng.Intn(4) == 0 {
			return values[rng.Intn(len(values))]
		}
		return float64(rng.Intn(5))
	}
	for trial := 0; trial < 3000; trial++ {
		cands := make([]Candidate, rng.Intn(40))
		for i := range cands {
			cands[i].CrossbarSize = i
			cands[i].Report.AreaMM2 = pick()
			cands[i].Report.PipelineCycle = pick()
		}
		sameFront(t, Pareto(cands), paretoPairwise(cands))
	}
	for _, cands := range prefilterCases(rng) {
		sameFront(t, Pareto(cands), paretoPairwise(cands))
	}
	cands := make([]Candidate, 20000)
	for i := range cands {
		cands[i].CrossbarSize = i
		cands[i].Report.AreaMM2 = math.Abs(spanningValue(rng))
		cands[i].Report.PipelineCycle = float64(rng.Intn(1000))
		if rng.Intn(1000) == 0 {
			cands[i].Report.PipelineCycle = math.Inf(1)
		}
	}
	sameFront(t, Pareto(cands), paretoPairwise(cands))
}

// TestAreaKeyOrder: areaKey orders as the areas compare, with −0 and +0
// one key. Checking neighbours in sorted order covers every pair.
func TestAreaKeyOrder(t *testing.T) {
	values := []float64{
		math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64, math.Copysign(0, -1),
		0, math.SmallestNonzeroFloat64, 1, math.MaxFloat64, math.Inf(1),
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 2000; i++ {
		values = append(values, spanningValue(rng))
	}
	sort.Float64s(values)
	for i := 1; i < len(values); i++ {
		a, b := values[i-1], values[i]
		if ka, kb := areaKey(a), areaKey(b); (a < b) != (ka < kb) || (a == b) != (ka == kb) {
			t.Fatalf("areaKey(%g) = %#x, areaKey(%g) = %#x: not in the areas' order", a, ka, b, kb)
		}
	}
}

// spanningValue draws a value of either sign whose magnitude is spread
// evenly in exponent over 1e-300…1e300.
func spanningValue(rng *rand.Rand) float64 {
	v := math.Pow(10, rng.Float64()*600-300)
	if rng.Intn(2) == 0 {
		v = -v
	}
	return v
}

// prefilterCases are candidate sets whose areas fill many buckets: areas
// over 1e-300…1e300, negative areas, ±0 and ±Inf areas and latencies,
// NaNs, and more distinct areas than buckets.
func prefilterCases(rng *rand.Rand) [][]Candidate {
	negZero, inf := math.Copysign(0, -1), math.Inf(1)
	specials := []float64{0, negZero, inf, math.Inf(-1), math.NaN()}
	kinds := []func() float64{
		// Magnitudes over the whole exponent range, both signs.
		func() float64 { return spanningValue(rng) },
		// Positive magnitudes only, as real areas and latencies are.
		func() float64 { return math.Abs(spanningValue(rng)) },
		// Few values: ties, ±0 and ±Inf everywhere.
		func() float64 {
			if rng.Intn(3) == 0 {
				return specials[rng.Intn(len(specials))]
			}
			return float64(rng.Intn(7) - 3)
		},
		// Mostly distinct integers, now and then a special value.
		func() float64 {
			if rng.Intn(50) == 0 {
				return specials[rng.Intn(len(specials))]
			}
			return float64(rng.Intn(100000))
		},
	}
	// Hand-made sets: ±0 are one area wherever the buckets split, and a
	// +Inf latency is a bucket's least.
	var sets [][]Candidate
	for _, pairs := range [][][2]float64{
		{{negZero, 1}, {0, 1}},
		{{0, 1}, {negZero, 1}, {negZero, 2}},
		{{1, inf}, {2, inf}},
		{{1, inf}},
		{{math.Inf(-1), inf}, {inf, 0}, {0, inf}},
		{{-2, 3}, {-1, 3}, {1, 2}, {2, 2}},
	} {
		cands := make([]Candidate, len(pairs))
		for i, p := range pairs {
			cands[i].CrossbarSize = i
			cands[i].Report.AreaMM2, cands[i].Report.PipelineCycle = p[0], p[1]
		}
		sets = append(sets, cands)
	}
	for trial := 0; trial < 400; trial++ {
		area, lat := kinds[rng.Intn(len(kinds))], kinds[rng.Intn(len(kinds))]
		n := rng.Intn(60)
		if trial%10 == 0 {
			n = 300 + rng.Intn(700) // more distinct areas than buckets
		}
		cands := make([]Candidate, n)
		for i := range cands {
			cands[i].CrossbarSize = i
			cands[i].Report.AreaMM2 = area()
			cands[i].Report.PipelineCycle = lat()
		}
		sets = append(sets, cands)
	}
	return sets
}

// TestParetoSurvivorsExact pins the prefilter to its rule by brute force:
// a candidate without a NaN metric survives exactly when no candidate of a
// lower area bucket has a latency at most its own, and the NaN candidates
// are marked on the front. Pareto's own tests cannot see a prefilter that
// drops too little, since its sorted pass settles the front either way.
func TestParetoSurvivorsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, cands := range prefilterCases(rng) {
		onFront := make([]bool, len(cands))
		got := paretoSurvivors(cands, onFront)
		nan := func(c Candidate) bool {
			return math.IsNaN(c.Report.AreaMM2) || math.IsNaN(c.Report.PipelineCycle)
		}
		lo, hi := uint64(math.MaxUint64), uint64(0)
		for _, c := range cands {
			if !nan(c) {
				lo, hi = min(lo, areaKey(c.Report.AreaMM2)), max(hi, areaKey(c.Report.AreaMM2))
			}
		}
		shift := 0
		for (hi-lo)>>shift >= 1<<paretoBucketBits {
			shift++
		}
		bucket := func(c Candidate) uint64 { return (areaKey(c.Report.AreaMM2) - lo) >> shift }
		var want []int
		for i, c := range cands {
			if onFront[i] != nan(c) {
				t.Fatalf("candidate %d (area %g, latency %g): onFront %v", i, c.Report.AreaMM2, c.Report.PipelineCycle, onFront[i])
			}
			if nan(c) {
				continue
			}
			dominated := false
			for _, d := range cands {
				if !nan(d) && bucket(d) < bucket(c) && d.Report.PipelineCycle <= c.Report.PipelineCycle {
					dominated = true
					break
				}
			}
			if !dominated {
				want = append(want, i)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%d candidates: survivors %v, want %v", len(cands), got, want)
		}
	}
}

// paperSweep is VGG-16 on the Table VI base design and the 6,570-design
// paper space (sizes 8–1024 step 8, parallelism 1–256 in powers of two,
// wire nodes 18–90 nm).
func paperSweep(tb testing.TB) (arch.Design, []arch.LayerDims, Space) {
	tb.Helper()
	layers, err := nn.VGG16().Dims()
	if err != nil {
		tb.Fatal(err)
	}
	base := arch.Design{
		CrossbarSize: 128, WeightPolarity: 2, TwoCrossbarSigned: true,
		WeightBits: 8, DataBits: 8,
		CMOS: tech.MustNode(45), Wire: tech.MustInterconnect(45), Dev: device.RRAM(),
		ADC: periph.ADCVariableSA, Neuron: periph.NeuronReLU,
		AreaCoefficient: arch.DefaultAreaCoefficient,
	}
	var sp Space
	for size := 8; size <= 1024; size += 8 {
		sp.CrossbarSizes = append(sp.CrossbarSizes, size)
	}
	for p := 1; p <= 256; p *= 2 {
		sp.Parallelisms = append(sp.Parallelisms, p)
	}
	sp.WireNodes = []int{18, 22, 28, 36, 45, 90}
	return base, layers, sp
}

// paperCandidates explores the paper sweep.
func paperCandidates(tb testing.TB) []Candidate {
	tb.Helper()
	base, layers, sp := paperSweep(tb)
	cands, err := Explore(context.Background(), base, layers, sp, Options{ErrorLimit: 0.5})
	if err != nil {
		tb.Fatal(err)
	}
	if len(cands) != 6570 {
		tb.Fatalf("paper space has %d candidates, want 6570", len(cands))
	}
	return cands
}

func TestParetoPaperSpace(t *testing.T) {
	cands := paperCandidates(t)
	sameFront(t, Pareto(cands), paretoPairwise(cands))
	// The prefilter leaves the sorted pass a few hundred candidates.
	survivors := len(paretoSurvivors(cands, make([]bool, len(cands))))
	if survivors > len(cands)/8 {
		t.Errorf("%d of %d candidates survive the prefilter, want at most %d", survivors, len(cands), len(cands)/8)
	}
	t.Logf("%d of %d candidates survive the prefilter", survivors, len(cands))
}

// BenchmarkPareto times the trade-off front of the 6,570-design paper
// space.
func BenchmarkPareto(b *testing.B) {
	cands := paperCandidates(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Pareto(cands)
	}
}
