package crossbar

import (
	"math"
	"testing"
	"testing/quick"

	"mnsim/internal/device"
	"mnsim/internal/tech"
)

func refParams(rows, cols int) Params {
	return New(rows, cols, device.RRAM(), tech.MustInterconnect(45))
}

func TestNewDefaults(t *testing.T) {
	p := refParams(64, 64)
	if p.RSense != DefaultRSense {
		t.Errorf("RSense = %v", p.RSense)
	}
	if math.Abs(p.VDrive-2*p.Dev.ReadVoltage) > 1e-12 {
		t.Errorf("VDrive = %v, want 2x calibration", p.VDrive)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []func(*Params){
		func(p *Params) { p.Rows = 0 },
		func(p *Params) { p.Cols = -1 },
		func(p *Params) { p.RSense = 0 },
		func(p *Params) { p.VDrive = 0 },
		func(p *Params) { p.Dev.RMin = -5 },
	}
	for i, mutate := range cases {
		p := refParams(8, 8)
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestAreaScalesWithCells(t *testing.T) {
	small, big := refParams(32, 32), refParams(64, 64)
	ratio := big.Area() / small.Area()
	if math.Abs(ratio-4) > 1e-9 {
		t.Fatalf("area ratio = %v, want 4", ratio)
	}
	if got := small.Area(); math.Abs(got-1024*small.Dev.CellArea())/got > 1e-12 {
		t.Fatalf("area = %v", got)
	}
}

// COMPUTE selects all cells, READ only one row: compute power approaches
// Rows times the read power, reduced by the column divider backpressure
// that only the all-rows case builds up (Section II.C / V.A).
func TestComputeVsReadPower(t *testing.T) {
	p := refParams(128, 128)
	ratio := p.ComputePower() / p.ReadPower()
	if ratio >= 128 || ratio < 128.0/3 {
		t.Fatalf("power ratio = %v, want within [%v, 128)", ratio, 128.0/3)
	}
}

func TestComputePowerFormula(t *testing.T) {
	p := refParams(2, 2)
	g1 := p.Dev.MeanConductance()
	g2 := p.Dev.MeanSquareConductance()
	gs := 1 / p.RSense
	ev2 := p.VDrive * p.VDrive / 3
	ev1 := p.VDrive / 2
	pCol := 2*g1*ev2 - (2*g2*ev2+2*1*g1*g1*ev1*ev1)/(gs+2*g1)
	want := 2 * pCol * p.Dev.AvgPowerFactor(p.VDrive)
	if got := p.ComputePower(); math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("ComputePower = %v, want %v", got, want)
	}
	if math.Abs(p.AvgDriveRMS()-p.VDrive/math.Sqrt(3)) > 1e-15 {
		t.Fatalf("AvgDriveRMS = %v", p.AvgDriveRMS())
	}
	// The backpressure correction only ever reduces power.
	naive := 4 * g1 * ev2 * p.Dev.AvgPowerFactor(p.VDrive)
	if got := p.ComputePower(); got >= naive {
		t.Fatalf("divider correction should reduce power: %v vs naive %v", got, naive)
	}
}

func TestLatencyGrowsWithSizeAndWire(t *testing.T) {
	small, big := refParams(32, 32), refParams(256, 256)
	if small.Latency() >= big.Latency() {
		t.Error("latency should grow with crossbar size")
	}
	// The settling time is dominated by the column capacitance, so the
	// higher-capacitance 90nm wires settle more slowly than 18nm ones.
	older := New(128, 128, device.RRAM(), tech.MustInterconnect(90))
	newer := New(128, 128, device.RRAM(), tech.MustInterconnect(18))
	if newer.Latency() >= older.Latency() {
		t.Error("higher-capacitance (older node) wires should settle slower")
	}
	if small.Latency() <= small.Dev.SwitchLatency {
		t.Error("latency must include the cell switch time")
	}
}

func TestComputeEnergy(t *testing.T) {
	p := refParams(64, 64)
	want := p.ComputePower() * p.Latency()
	if got := p.ComputeEnergy(); math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("ComputeEnergy = %v, want %v", got, want)
	}
}

func TestIdealMVMKnown(t *testing.T) {
	p := refParams(2, 2)
	g := [][]float64{{1e-5, 2e-5}, {3e-5, 4e-5}}
	vin := []float64{0.1, 0.2}
	out, err := p.IdealMVM(g, vin)
	if err != nil {
		t.Fatal(err)
	}
	gs := 1 / p.RSense
	want0 := (1e-5*0.1 + 3e-5*0.2) / (gs + 4e-5)
	want1 := (2e-5*0.1 + 4e-5*0.2) / (gs + 6e-5)
	if math.Abs(out[0]-want0) > 1e-15 || math.Abs(out[1]-want1) > 1e-15 {
		t.Fatalf("IdealMVM = %v, want [%v %v]", out, want0, want1)
	}
}

func TestIdealMVMShapeErrors(t *testing.T) {
	p := refParams(2, 2)
	if _, err := p.IdealMVM([][]float64{{1, 1}}, []float64{1, 1}); err == nil {
		t.Error("row mismatch should fail")
	}
	if _, err := p.IdealMVM([][]float64{{1, 1}, {1, 1}}, []float64{1}); err == nil {
		t.Error("input mismatch should fail")
	}
	if _, err := p.IdealMVM([][]float64{{1}, {1, 1}}, []float64{1, 1}); err == nil {
		t.Error("ragged matrix should fail")
	}
}

// Property: IdealMVM is monotone in conductance — raising any cell's
// conductance cannot lower its column's output.
func TestIdealMVMMonotone(t *testing.T) {
	p := refParams(3, 2)
	f := func(seed uint8) bool {
		base := 1e-5 * (1 + float64(seed%16))
		g := [][]float64{{base, base}, {base, base}, {base, base}}
		vin := []float64{0.1, 0.2, 0.3}
		out1, err := p.IdealMVM(g, vin)
		if err != nil {
			return false
		}
		g[1][0] *= 2
		out2, err := p.IdealMVM(g, vin)
		if err != nil {
			return false
		}
		return out2[0] >= out1[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMapWeights(t *testing.T) {
	p := refParams(2, 2)
	g, r, err := p.MapWeights([][]float64{{0, 1}, {0.5, 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r[0][0]-p.Dev.RMax)/p.Dev.RMax > 1e-12 {
		t.Errorf("weight 0 -> R %v, want RMax", r[0][0])
	}
	if math.Abs(r[0][1]-p.Dev.RMin)/p.Dev.RMin > 1e-12 {
		t.Errorf("weight 1 -> R %v, want RMin", r[0][1])
	}
	for m := range g {
		for n := range g[m] {
			if math.Abs(g[m][n]-1/r[m][n]) > 1e-15 {
				t.Errorf("g != 1/r at (%d,%d)", m, n)
			}
		}
	}
	if _, _, err := p.MapWeights([][]float64{{0, 2}, {0, 0}}); err == nil {
		t.Error("out-of-range weight should fail")
	}
	if _, _, err := p.MapWeights([][]float64{{0, 0}}); err == nil {
		t.Error("row mismatch should fail")
	}
	if _, _, err := p.MapWeights([][]float64{{0}, {0, 0}}); err == nil {
		t.Error("ragged weights should fail")
	}
}

func TestLayoutCalibration(t *testing.T) {
	model, measured, coeff := LayoutCalibration(500)
	if measured != 3420 {
		t.Fatalf("measured = %v", measured)
	}
	if model <= 0 || coeff <= 0 {
		t.Fatalf("model %v, coeff %v", model, coeff)
	}
	// The paper reports the layout larger than the estimate (extra routing
	// space), so the coefficient must exceed 1.
	if coeff <= 1 {
		t.Errorf("coefficient %v should exceed 1", coeff)
	}
	if math.Abs(coeff-measured/model) > 1e-12 {
		t.Errorf("coefficient inconsistent")
	}
}

func TestOutputFullScale(t *testing.T) {
	p := refParams(64, 64)
	fs := p.OutputFullScale()
	if fs <= 0 || fs >= p.VDrive {
		t.Fatalf("full scale %v outside (0, VDrive)", fs)
	}
	// More rows -> larger max column current -> larger full scale.
	if big := refParams(256, 256).OutputFullScale(); big <= fs {
		t.Error("full scale should grow with rows")
	}
}

func TestRequiredADCBits(t *testing.T) {
	// 8-bit inputs, 4-bit cells, 256 rows => 8+4+8=20 bits, clamped to 8.
	if got := RequiredADCBits(8, 4, 256, 8); got != 8 {
		t.Fatalf("clamped bits = %d, want 8", got)
	}
	// Tiny case below the clamp: 1+1+ceil(log2 2)=3.
	if got := RequiredADCBits(1, 1, 2, 8); got != 3 {
		t.Fatalf("small bits = %d, want 3", got)
	}
	if got := RequiredADCBits(1, 1, 1, 8); got != 2 {
		t.Fatalf("single-row bits = %d, want 2", got)
	}
}

// ceilLog2Values is v in [1, 2²⁰] and 2ᵏ−1, 2ᵏ, 2ᵏ+1 for k ≤ 40.
func ceilLog2Values() []int {
	var vs []int
	for v := 1; v <= 1<<20; v++ {
		vs = append(vs, v)
	}
	for k := 1; k <= 40; k++ {
		vs = append(vs, 1<<k-1, 1<<k, 1<<k+1)
	}
	return vs
}

// TestCeilLog2MatchesFloat: the integer ceilLog2 equals the float
// ⌈log₂ v⌉ it replaced wherever the float form is exact.
func TestCeilLog2MatchesFloat(t *testing.T) {
	for _, v := range ceilLog2Values() {
		want := 0
		if v > 1 {
			want = int(math.Ceil(math.Log2(float64(v))))
		}
		if got := ceilLog2(v); got != want {
			t.Fatalf("ceilLog2(%d) = %d, want %d", v, got, want)
		}
	}
}
