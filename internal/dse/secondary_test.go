package dse

import (
	"math"
	"testing"
)

func TestBestWithSecondary(t *testing.T) {
	cands := explore(t)
	primary := Best(cands, MaxAccuracy)
	// Within 20% of the best accuracy, pick the smallest area — the
	// paper's "secondary optimization target".
	tie := BestWithSecondary(cands, MaxAccuracy, MinArea, 0.20)
	if tie == nil {
		t.Fatal("no candidate")
	}
	if tie.Report.AreaMM2 > primary.Report.AreaMM2 {
		t.Fatalf("secondary target failed to improve area: %v vs %v", tie.Report.AreaMM2, primary.Report.AreaMM2)
	}
	// The tie-broken design still honours the tolerance on the primary.
	limit := MaxAccuracy.metric(primary) * 1.20
	if MaxAccuracy.metric(tie) > limit {
		t.Fatalf("secondary pick violates the primary tolerance: %v > %v", MaxAccuracy.metric(tie), limit)
	}
	// Zero tolerance degenerates to Best (possibly a different but
	// equally-good candidate).
	exact := BestWithSecondary(cands, MaxAccuracy, MinArea, 0)
	if exact == nil || MaxAccuracy.metric(exact) > MaxAccuracy.metric(primary) {
		t.Fatal("zero tolerance should keep the primary optimum")
	}
	// Negative tolerance clamps to zero rather than excluding the optimum.
	if BestWithSecondary(cands, MaxAccuracy, MinArea, -1) == nil {
		t.Fatal("negative tolerance should behave like zero")
	}
}

func TestBestWithSecondaryInfeasible(t *testing.T) {
	cands := explore(t)
	for i := range cands {
		cands[i].Feasible = false
	}
	if BestWithSecondary(cands, MinArea, MinEnergy, 0.1) != nil {
		t.Fatal("infeasible set should return nil")
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
// win by coming first; Best and BestWithSecondary skip it wherever it is.
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
	for _, tc := range []struct {
		name string
		set  []Candidate
		want int
	}{
		// A NaN primary neither sets the window nor falls inside it.
		{"NaN primary first", feasibleSet([2]float64{nan, 0}, [2]float64{1, 3}, [2]float64{1.2, 2}), 3},
		{"NaN primary last", feasibleSet([2]float64{1, 3}, [2]float64{1.2, 2}, [2]float64{nan, 0}), 2},
		// A NaN secondary in the window is never picked.
		{"NaN secondary first", feasibleSet([2]float64{1, nan}, [2]float64{1.2, 2}, [2]float64{1.1, 3}), 2},
		{"NaN secondary last", feasibleSet([2]float64{1.2, 2}, [2]float64{1.1, 3}, [2]float64{1, nan}), 1},
		{"all NaN primary", feasibleSet([2]float64{nan, 1}, [2]float64{nan, 2}), 0},
		{"all NaN secondary", feasibleSet([2]float64{1, nan}, [2]float64{1.1, nan}), 0},
	} {
		if got := pick(BestWithSecondary(tc.set, MinArea, MinEnergy, 0.5)); got != tc.want {
			t.Errorf("BestWithSecondary, %s: picked candidate %d, want %d", tc.name, got, tc.want)
		}
	}
}
