package device

import (
	"math"
	"math/rand"
	"testing"
)

func TestMeanConductanceMatchesHarmonicMean(t *testing.T) {
	m := RRAM()
	want := 1 / m.HarmonicMeanR()
	if got := m.MeanConductance(); math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("MeanConductance = %v, want %v", got, want)
	}
}

// The analytic conductance moments must match Monte-Carlo estimates over
// the uniform level population.
func TestConductanceMomentsMatchSampling(t *testing.T) {
	m := RRAM()
	rng := rand.New(rand.NewSource(1))
	const trials = 200000
	var s1, s2 float64
	for i := 0; i < trials; i++ {
		r, err := m.LevelResistance(rng.Intn(m.Levels()))
		if err != nil {
			t.Fatal(err)
		}
		g := 1 / r
		s1 += g
		s2 += g * g
	}
	s1 /= trials
	s2 /= trials
	if math.Abs(s1-m.MeanConductance())/m.MeanConductance() > 0.01 {
		t.Errorf("sampled mean %v vs analytic %v", s1, m.MeanConductance())
	}
	if math.Abs(s2-m.MeanSquareConductance())/m.MeanSquareConductance() > 0.02 {
		t.Errorf("sampled second moment %v vs analytic %v", s2, m.MeanSquareConductance())
	}
}

func TestAvgPowerFactorLimits(t *testing.T) {
	m := RRAM()
	// Degenerate drive returns the neutral factor.
	if got := m.AvgPowerFactor(0); got != 1 {
		t.Fatalf("AvgPowerFactor(0) = %v", got)
	}
	// Linear device limit: factor -> 1.
	lin := m
	lin.NonlinearVc = 1e6
	if got := lin.AvgPowerFactor(0.3); math.Abs(got-1) > 1e-6 {
		t.Fatalf("linear limit = %v", got)
	}
	// The reference device straddles its calibration point, conducting
	// slightly more on average than the linear prediction.
	f := m.AvgPowerFactor(2 * m.ReadVoltage)
	if f <= 1 || f > 1.3 {
		t.Fatalf("factor = %v, want slightly above 1", f)
	}
}

// The analytic factor must match numerical integration of v·I(v).
func TestAvgPowerFactorMatchesIntegral(t *testing.T) {
	m := RRAM()
	vmax := 0.3
	const steps = 20000
	var num float64
	r := 1.0 // cancels
	for i := 0; i < steps; i++ {
		v := vmax * (float64(i) + 0.5) / steps
		num += v * m.Current(v, r)
	}
	num *= vmax / steps
	linear := vmax * vmax * vmax / 3 / r
	want := num / linear
	if got := m.AvgPowerFactor(vmax); math.Abs(got-want)/want > 1e-4 {
		t.Fatalf("factor %v vs integral %v", got, want)
	}
}
