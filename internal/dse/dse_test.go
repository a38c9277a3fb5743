package dse

import (
	"context"
	"math"
	"testing"

	"mnsim/internal/arch"
	"mnsim/internal/device"
	"mnsim/internal/periph"
	"mnsim/internal/tech"
)

func baseDesign() arch.Design {
	return arch.Design{
		CrossbarSize:      128,
		WeightPolarity:    2,
		TwoCrossbarSigned: true,
		WeightBits:        4,
		DataBits:          8,
		CMOS:              tech.MustNode(45),
		Wire:              tech.MustInterconnect(45),
		Dev:               device.RRAM(),
		ADC:               periph.ADCVariableSA,
		Neuron:            periph.NeuronSigmoid,
		AreaCoefficient:   arch.DefaultAreaCoefficient,
	}
}

var largeLayer = []arch.LayerDims{{Rows: 2048, Cols: 1024, Passes: 1}}

// smallSpace keeps tests fast while exercising all sweep axes.
func smallSpace() Space {
	return Space{
		CrossbarSizes: []int{32, 64, 128, 256},
		Parallelisms:  []int{1, 16, 256},
		WireNodes:     []int{28, 45},
	}
}

func explore(t *testing.T) []Candidate {
	t.Helper()
	cands, err := Explore(context.Background(), baseDesign(), largeLayer, smallSpace(), Options{ErrorLimit: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	return cands
}

func TestExploreCoversGrid(t *testing.T) {
	cands := explore(t)
	// p=256 only applies to size 256: 4 sizes x 2 p + 1 = 9 per node, 2 nodes.
	if len(cands) != 18 {
		t.Fatalf("got %d candidates, want 18", len(cands))
	}
	seen := map[[3]int]bool{}
	for _, c := range cands {
		key := [3]int{c.CrossbarSize, c.Parallelism, c.WireNode}
		if seen[key] {
			t.Fatalf("duplicate candidate %v", key)
		}
		seen[key] = true
		if c.Report.AreaMM2 <= 0 || c.Report.PipelineCycle <= 0 {
			t.Fatalf("empty report for %v", key)
		}
	}
}

func TestExploreErrors(t *testing.T) {
	if _, err := Explore(context.Background(), baseDesign(), largeLayer, Space{}, Options{}); err == nil {
		t.Error("empty space accepted")
	}
	s := smallSpace()
	s.WireNodes = []int{77}
	if _, err := Explore(context.Background(), baseDesign(), largeLayer, s, Options{}); err == nil {
		t.Error("unknown wire node accepted")
	}
	// A space where nothing can be built: crossbars too small for the
	// signed 16-bit weights.
	d := baseDesign()
	d.WeightBits = 16
	d.TwoCrossbarSigned = false
	bad := Space{CrossbarSizes: []int{4}, Parallelisms: []int{1}, WireNodes: []int{45}}
	if _, err := Explore(context.Background(), d, largeLayer, bad, Options{}); err == nil {
		t.Error("unbuildable space accepted")
	}
}

func TestBestPerObjective(t *testing.T) {
	cands := explore(t)
	for _, obj := range Objectives() {
		best := Best(cands, obj)
		if best == nil {
			t.Fatalf("%v: no feasible design", obj)
		}
		if !best.Feasible {
			t.Fatalf("%v: Best returned infeasible design", obj)
		}
		for i := range cands {
			c := &cands[i]
			if c.Feasible && obj.metric(c) < obj.metric(best) {
				t.Fatalf("%v: candidate %+v beats Best %+v", obj, c, best)
			}
		}
	}
}

// The qualitative Table IV story: the area-optimal design uses a large
// crossbar with minimum parallelism; the latency-optimal design uses full
// parallelism; the accuracy-optimal design uses a mid-size crossbar with
// the older (thicker-wire) interconnect.
func TestOptimaMatchPaperShapes(t *testing.T) {
	cands := explore(t)
	area := Best(cands, MinArea)
	lat := Best(cands, MinLatency)
	acc := Best(cands, MaxAccuracy)
	if area.Parallelism != 1 {
		t.Errorf("area-optimal parallelism = %d, want 1", area.Parallelism)
	}
	if area.CrossbarSize < lat.CrossbarSize && area.CrossbarSize < 128 {
		t.Errorf("area-optimal crossbar %d unexpectedly small", area.CrossbarSize)
	}
	if lat.Parallelism < 128 {
		t.Errorf("latency-optimal parallelism = %d, want large", lat.Parallelism)
	}
	if acc.CrossbarSize < 32 || acc.CrossbarSize > 128 {
		t.Errorf("accuracy-optimal crossbar = %d, want mid size", acc.CrossbarSize)
	}
	if acc.WireNode != 45 {
		t.Errorf("accuracy-optimal wire node = %d, want the older 45nm", acc.WireNode)
	}
}

func TestBestRespectsFeasibility(t *testing.T) {
	cands := explore(t)
	// With an absurdly tight constraint nothing is feasible.
	for i := range cands {
		cands[i].Feasible = math.Abs(cands[i].Report.ErrorWorst) < 1e-9
	}
	if Best(cands, MinArea) != nil {
		t.Fatal("Best should return nil with no feasible candidates")
	}
}

// feasibleSet builds feasible candidates from (area, energy) pairs, each
// named by its place (CrossbarSize = index + 1).
func feasibleSet(pairs ...[2]float64) []Candidate {
	cands := make([]Candidate, len(pairs))
	for i, p := range pairs {
		cands[i] = Candidate{CrossbarSize: i + 1, Feasible: true}
		cands[i].Report.AreaMM2, cands[i].Report.EnergyPerSample = p[0], p[1]
	}
	return cands
}

// TestBestSkipsNaN: a NaN metric compares false either way, so it would
// win by coming first; Best skips it wherever it is.
func TestBestSkipsNaN(t *testing.T) {
	nan := math.NaN()
	pick := func(c *Candidate) int {
		if c == nil {
			return 0
		}
		return c.CrossbarSize
	}
	for _, tc := range []struct {
		name string
		set  []Candidate
		want int // the place of the pick, 0 for nil
	}{
		{"NaN first", feasibleSet([2]float64{nan, 0}, [2]float64{5, 0}, [2]float64{1, 0}), 3},
		{"NaN last", feasibleSet([2]float64{5, 0}, [2]float64{1, 0}, [2]float64{nan, 0}), 2},
		{"all NaN", feasibleSet([2]float64{nan, 0}, [2]float64{nan, 0}), 0},
	} {
		if got := pick(Best(tc.set, MinArea)); got != tc.want {
			t.Errorf("Best, %s: picked candidate %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestParetoFront(t *testing.T) {
	cands := explore(t)
	front := Pareto(cands)
	if len(front) == 0 || len(front) > len(cands) {
		t.Fatalf("front size %d of %d", len(front), len(cands))
	}
	// Sorted by area, and latency must be non-increasing along the front.
	for i := 1; i < len(front); i++ {
		if front[i].Report.AreaMM2 < front[i-1].Report.AreaMM2 {
			t.Fatal("front not sorted by area")
		}
		if front[i].Report.PipelineCycle > front[i-1].Report.PipelineCycle {
			t.Fatal("front not monotone in latency")
		}
	}
	// No front member is dominated by any candidate.
	for _, f := range front {
		for _, c := range cands {
			if c.Report.AreaMM2 < f.Report.AreaMM2 && c.Report.PipelineCycle < f.Report.PipelineCycle {
				t.Fatalf("front member %+v dominated", f)
			}
		}
	}
}

func TestRadarFactors(t *testing.T) {
	cands := explore(t)
	selected := []Candidate{*Best(cands, MinArea), *Best(cands, MinEnergy), *Best(cands, MinLatency), *Best(cands, MaxAccuracy)}
	radar := RadarFactors(selected)
	if len(radar) != 4 {
		t.Fatalf("radar rows = %d", len(radar))
	}
	for k := 0; k < 4; k++ {
		maxV := 0.0
		for _, row := range radar {
			if row[k] < 0 || row[k] > 1+1e-12 {
				t.Fatalf("factor %d outside [0,1]: %v", k, row[k])
			}
			if row[k] > maxV {
				maxV = row[k]
			}
		}
		if math.Abs(maxV-1) > 1e-12 {
			t.Fatalf("factor %d not normalized to 1 (max %v)", k, maxV)
		}
	}
	// Each optimal design tops its own factor: reciprocal area for the
	// area-optimal design, speed for the latency-optimal one.
	if radar[0][0] != 1 {
		t.Error("area-optimal design should have normalized reciprocal area 1")
	}
	if radar[2][3] != 1 {
		t.Error("latency-optimal design should have normalized speed 1")
	}
	if RadarFactors(nil) != nil {
		t.Error("empty selection should return nil")
	}
}

func TestObjectiveString(t *testing.T) {
	for obj, want := range map[Objective]string{MinArea: "Area", MinEnergy: "Energy", MinLatency: "Latency", MaxAccuracy: "Accuracy"} {
		if obj.String() != want {
			t.Errorf("%d -> %q", int(obj), obj.String())
		}
	}
	if Objective(9).String() != "Objective(9)" {
		t.Error("unknown objective String")
	}
	if !math.IsNaN(Objective(9).metric(&Candidate{})) {
		t.Error("unknown objective metric should be NaN")
	}
}

func TestDefaultSpaceMatchesPaperRanges(t *testing.T) {
	s := DefaultSpace()
	if s.CrossbarSizes[0] != 4 || s.CrossbarSizes[len(s.CrossbarSizes)-1] != 1024 {
		t.Errorf("sizes %v", s.CrossbarSizes)
	}
	if s.WireNodes[0] != 18 || s.WireNodes[len(s.WireNodes)-1] != 45 {
		t.Errorf("wire nodes %v", s.WireNodes)
	}
}
