package dse

import (
	"context"
	"math"
	"math/rand"
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

// TestParetoMatchesPairwise holds the sorted pass to the pairwise
// definition, in order as well as in membership, on small integer grids
// full of equal areas, equal latencies, duplicates, ±0 and NaNs.
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
