package circuit

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"mnsim/internal/device"
)

// uniformR builds an M×N resistance matrix with every cell at r.
func uniformR(m, n int, r float64) [][]float64 {
	out := make([][]float64, m)
	for i := range out {
		out[i] = make([]float64, n)
		for j := range out[i] {
			out[i][j] = r
		}
	}
	return out
}

func randomR(m, n int, dev device.Model, rng *rand.Rand) [][]float64 {
	out := make([][]float64, m)
	for i := range out {
		out[i] = make([]float64, n)
		for j := range out[i] {
			lvl := rng.Intn(dev.Levels())
			r, err := dev.LevelResistance(lvl)
			if err != nil {
				panic(err)
			}
			out[i][j] = r
		}
	}
	return out
}

func TestValidate(t *testing.T) {
	ok := &Crossbar{M: 2, N: 2, R: uniformR(2, 2, 1e3), WireR: 1, RSense: 100, Dev: device.RRAM()}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	withR := func(r float64) [][]float64 {
		rs := uniformR(2, 2, 1e3)
		rs[0][1] = r
		return rs
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		c    Crossbar
		want string // substring of the error
	}{
		{"empty", Crossbar{M: 0, N: 2, R: nil, WireR: 1, RSense: 100}, "size"},
		{"short R", Crossbar{M: 2, N: 2, R: uniformR(1, 2, 1e3), WireR: 1, RSense: 100}, "rows"},
		{"ragged R", Crossbar{M: 2, N: 2, R: [][]float64{{1e3, 1e3}, {1e3}}, WireR: 1, RSense: 100}, "cols"},
		{"negative R", Crossbar{M: 2, N: 2, R: withR(-1), WireR: 1, RSense: 100}, "resistance -1 at (0,1)"},
		{"NaN R", Crossbar{M: 2, N: 2, R: withR(nan), WireR: 1, RSense: 100}, "resistance NaN at (0,1)"},
		{"+Inf R", Crossbar{M: 2, N: 2, R: withR(inf), WireR: 1, RSense: 100}, "resistance +Inf at (0,1)"},
		{"-Inf R", Crossbar{M: 2, N: 2, R: withR(-inf), WireR: 1, RSense: 100}, "resistance -Inf at (0,1)"},
		{"negative WireR", Crossbar{M: 2, N: 2, R: uniformR(2, 2, 1e3), WireR: -1, RSense: 100}, "wire resistance -1"},
		{"NaN WireR", Crossbar{M: 2, N: 2, R: uniformR(2, 2, 1e3), WireR: nan, RSense: 100}, "wire resistance NaN"},
		{"+Inf WireR", Crossbar{M: 2, N: 2, R: uniformR(2, 2, 1e3), WireR: inf, RSense: 100}, "wire resistance +Inf"},
		{"zero RSense", Crossbar{M: 2, N: 2, R: uniformR(2, 2, 1e3), WireR: 1, RSense: 0}, "sense resistance 0"},
		{"NaN RSense", Crossbar{M: 2, N: 2, R: uniformR(2, 2, 1e3), WireR: 1, RSense: nan}, "sense resistance NaN"},
		{"+Inf RSense", Crossbar{M: 2, N: 2, R: uniformR(2, 2, 1e3), WireR: 1, RSense: inf}, "sense resistance +Inf"},
		{"bad Dev, non-linear", Crossbar{M: 2, N: 2, R: uniformR(2, 2, 1e3), WireR: 1, RSense: 100}, ""},
	}
	for _, tc := range cases {
		err := tc.c.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted invalid crossbar", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// A 1×1 linear crossbar is a plain series divider:
// v — r — cell R — Rs — ground.
func TestLinear1x1VoltageDivider(t *testing.T) {
	c := &Crossbar{M: 1, N: 1, R: uniformR(1, 1, 1000), WireR: 10, RSense: 200, Linear: true}
	res, err := c.Solve([]float64{0.3}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.3 * 200 / (10 + 1000 + 200)
	if math.Abs(res.VOut[0]-want)/want > 1e-8 {
		t.Fatalf("VOut = %v, want %v", res.VOut[0], want)
	}
	// And the source power matches v*i for the series current.
	i := 0.3 / (10 + 1000 + 200)
	if math.Abs(res.Power-0.3*i)/(0.3*i) > 1e-8 {
		t.Fatalf("Power = %v, want %v", res.Power, 0.3*i)
	}
}

// With zero wire resistance and linear devices the solver must reproduce the
// analytic ideal output of Eq. 2.
func TestLinearZeroWireMatchesIdeal(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dev := device.RRAM()
	c := &Crossbar{M: 8, N: 6, R: randomR(8, 6, dev, rng), WireR: 0, RSense: 300, Linear: true}
	vin := make([]float64, 8)
	for i := range vin {
		vin[i] = 0.1 + 0.2*rng.Float64()
	}
	res, err := c.Solve(vin, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := c.IdealOut(vin)
	if err != nil {
		t.Fatal(err)
	}
	for n := range ideal {
		if math.Abs(res.VOut[n]-ideal[n]) > 1e-6*math.Abs(ideal[n])+1e-12 {
			t.Fatalf("col %d: solver %v vs ideal %v", n, res.VOut[n], ideal[n])
		}
	}
}

// Wire resistance must strictly reduce every output voltage relative to the
// ideal — the monotone degradation the accuracy model fits (Fig. 5).
func TestWireResistanceReducesOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dev := device.RRAM()
	c := &Crossbar{M: 16, N: 16, R: randomR(16, 16, dev, rng), WireR: 2.8, RSense: 100, Linear: true}
	vin := make([]float64, 16)
	for i := range vin {
		vin[i] = 0.3
	}
	res, err := c.Solve(vin, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ideal, _ := c.IdealOut(vin)
	for n := range ideal {
		if res.VOut[n] >= ideal[n] {
			t.Fatalf("col %d: wire-loaded output %v >= ideal %v", n, res.VOut[n], ideal[n])
		}
	}
}

// Energy conservation: source power equals dissipated power.
func TestPowerConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dev := device.RRAM()
	for _, linear := range []bool{true, false} {
		c := &Crossbar{M: 8, N: 8, R: randomR(8, 8, dev, rng), WireR: 1.3, RSense: 150, Dev: dev, Linear: linear}
		vin := make([]float64, 8)
		for i := range vin {
			vin[i] = 0.25
		}
		res, err := c.Solve(vin, SolveOptions{})
		if err != nil {
			t.Fatalf("linear=%v: %v", linear, err)
		}
		diss := c.DissipatedPower(res, vin)
		if math.Abs(res.Power-diss)/res.Power > 1e-6 {
			t.Fatalf("linear=%v: source %v vs dissipated %v", linear, res.Power, diss)
		}
	}
}

// Non-linear 1×1: the Newton solution must satisfy KCL with the sinh device,
// verified against an independent bisection solve of the scalar circuit.
func TestNonlinear1x1MatchesBisection(t *testing.T) {
	dev := device.RRAM()
	rCell := 2000.0
	c := &Crossbar{M: 1, N: 1, R: uniformR(1, 1, rCell), WireR: 5, RSense: 400, Dev: dev}
	vin := 0.3
	res, err := c.Solve([]float64{vin}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Scalar circuit: current i flows v -> r -> cell -> Rs.
	// Unknown: voltage across cell vd. i = dev.Current(vd); KVL:
	// vin = i*(WireR + RSense) + vd.
	f := func(vd float64) float64 {
		i := dev.Current(vd, rCell)
		return vin - i*(5+400) - vd
	}
	lo, hi := 0.0, vin
	for iter := 0; iter < 200; iter++ {
		mid := (lo + hi) / 2
		if f(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	vd := (lo + hi) / 2
	wantOut := dev.Current(vd, rCell) * 400
	if math.Abs(res.VOut[0]-wantOut) > 1e-7 {
		t.Fatalf("VOut = %v, bisection %v", res.VOut[0], wantOut)
	}
	if res.NewtonIters < 2 {
		t.Fatalf("non-linear solve reported %d Newton iterations", res.NewtonIters)
	}
}

// The non-linear solve must coincide with the linear solve when the device
// is operated exactly at its calibration point (cell voltage = ReadVoltage):
// impossible in a loaded network, so instead check the limit Vc→∞ where the
// sinh law degenerates to a linear resistor.
func TestNonlinearDegeneratesToLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dev := device.RRAM()
	dev.NonlinearVc = 1e6 // essentially linear I-V
	r := randomR(6, 6, dev, rng)
	vin := make([]float64, 6)
	for i := range vin {
		vin[i] = 0.3
	}
	nl := &Crossbar{M: 6, N: 6, R: r, WireR: 1.3, RSense: 150, Dev: dev}
	lin := &Crossbar{M: 6, N: 6, R: r, WireR: 1.3, RSense: 150, Linear: true}
	resNL, err := nl.Solve(vin, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	resLin, err := lin.Solve(vin, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for n := range resNL.VOut {
		if math.Abs(resNL.VOut[n]-resLin.VOut[n]) > 1e-7 {
			t.Fatalf("col %d: nl %v vs lin %v", n, resNL.VOut[n], resLin.VOut[n])
		}
	}
}

// The sign of the non-linear deviation must match the operating point:
// cells biased above the calibration voltage conduct more than their
// calibrated resistance (output above the linear solution); cells biased
// below conduct less (output below). This is the physics behind the
// U-shaped error-versus-size curve of Table V.
func TestNonlinearitySignMatchesOperatingPoint(t *testing.T) {
	dev := device.RRAM() // calibration at 0.15 V, drive at 0.30 V
	vinVal := 2 * dev.ReadVoltage
	run := func(m int, rs float64) (nl, lin float64, vCell float64) {
		r := uniformR(m, 4, 10e3)
		vin := make([]float64, m)
		for i := range vin {
			vin[i] = vinVal
		}
		cNL := &Crossbar{M: m, N: 4, R: r, WireR: 0.5, RSense: rs, Dev: dev}
		cLin := &Crossbar{M: m, N: 4, R: r, WireR: 0.5, RSense: rs, Linear: true}
		resNL, err := cNL.Solve(vin, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		resLin, err := cLin.Solve(vin, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return resNL.VOut[0], resLin.VOut[0], cNL.CellVoltage(resNL, 0, 0)
	}
	// Small load: cells keep most of the drive voltage, operate above the
	// 0.15 V calibration point, so they look less resistive than calibrated.
	nl, lin, vCell := run(2, 50)
	if vCell <= dev.ReadVoltage {
		t.Fatalf("setup: expected cell voltage above calibration, got %v", vCell)
	}
	if nl <= lin {
		t.Errorf("above calibration: non-linear output %v should exceed linear %v", nl, lin)
	}
	// Heavy load (large M, big Rs): the column node rises, cells operate
	// below calibration and look more resistive.
	nl, lin, vCell = run(64, 400)
	if vCell >= dev.ReadVoltage {
		t.Fatalf("setup: expected cell voltage below calibration, got %v", vCell)
	}
	if nl >= lin {
		t.Errorf("below calibration: non-linear output %v should be under linear %v", nl, lin)
	}
}

func TestSolveInputLengthMismatch(t *testing.T) {
	c := &Crossbar{M: 2, N: 2, R: uniformR(2, 2, 1e3), WireR: 1, RSense: 100, Linear: true}
	if _, err := c.Solve([]float64{0.3}, SolveOptions{}); err == nil {
		t.Fatal("short input should fail")
	}
	if _, err := c.IdealOut([]float64{0.3}); err == nil {
		t.Fatal("short ideal input should fail")
	}
}

// The farthest column from the inputs must see the lowest output voltage
// when all cells are equal — the paper's worst-case column argument.
func TestFarthestColumnIsWorst(t *testing.T) {
	c := &Crossbar{M: 16, N: 16, R: uniformR(16, 16, 500), WireR: 2.8, RSense: 50, Linear: true}
	vin := make([]float64, 16)
	for i := range vin {
		vin[i] = 0.3
	}
	res, err := c.Solve(vin, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n < 16; n++ {
		if res.VOut[n] >= res.VOut[n-1] {
			t.Fatalf("column %d output %v not below column %d output %v", n, res.VOut[n], n-1, res.VOut[n-1])
		}
	}
}

func TestCellVoltagePositive(t *testing.T) {
	dev := device.RRAM()
	c := &Crossbar{M: 4, N: 4, R: uniformR(4, 4, 10e3), WireR: 1, RSense: 100, Dev: dev}
	vin := []float64{0.3, 0.3, 0.3, 0.3}
	res, err := c.Solve(vin, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 4; m++ {
		for n := 0; n < 4; n++ {
			vd := c.CellVoltage(res, m, n)
			if vd <= 0 || vd >= 0.3 {
				t.Fatalf("cell (%d,%d) voltage %v outside (0, 0.3)", m, n, vd)
			}
		}
	}
}

func TestWriteNetlist(t *testing.T) {
	dev := device.RRAM()
	c := &Crossbar{M: 2, N: 3, R: uniformR(2, 3, 1e3), WireR: 2, RSense: 100, Dev: dev}
	var sb strings.Builder
	if err := c.WriteNetlist(&sb, []float64{0.3, 0.2}); err != nil {
		t.Fatal(err)
	}
	deck := sb.String()
	for _, want := range []string{"Vin0", "Vin1", "Rs0", "Rs2", "Gcell_1_2", ".op", ".end"} {
		if !strings.Contains(deck, want) {
			t.Errorf("netlist missing %q", want)
		}
	}
	if n := strings.Count(deck, "Gcell_"); n != 6 {
		t.Errorf("netlist has %d cells, want 6", n)
	}
	// Linear variant emits R elements for cells instead.
	c.Linear = true
	sb.Reset()
	if err := c.WriteNetlist(&sb, []float64{0.3, 0.2}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Rcell_0_0") {
		t.Error("linear netlist missing Rcell elements")
	}
	if strings.Contains(sb.String(), "Gcell_") {
		t.Error("linear netlist should not contain behavioural sources")
	}
}

func TestWriteNetlistErrors(t *testing.T) {
	c := &Crossbar{M: 2, N: 2, R: uniformR(2, 2, 1e3), WireR: 1, RSense: 100, Linear: true}
	var sb strings.Builder
	if err := c.WriteNetlist(&sb, []float64{0.3}); err == nil {
		t.Fatal("short input should fail")
	}
	bad := &Crossbar{M: 0, N: 0}
	if err := bad.WriteNetlist(&sb, nil); err == nil {
		t.Fatal("invalid crossbar should fail")
	}
}

// Superposition holds for the linear network: solving with v1+v2 equals the
// sum of the separate solutions.
func TestLinearSuperposition(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dev := device.RRAM()
	c := &Crossbar{M: 5, N: 5, R: randomR(5, 5, dev, rng), WireR: 1.3, RSense: 120, Linear: true}
	v1 := []float64{0.1, 0, 0.2, 0, 0.05}
	v2 := []float64{0, 0.15, 0, 0.1, 0}
	sum := make([]float64, 5)
	for i := range sum {
		sum[i] = v1[i] + v2[i]
	}
	r1, err := c.Solve(v1, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Solve(v2, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := c.Solve(sum, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 5; n++ {
		want := r1.VOut[n] + r2.VOut[n]
		if math.Abs(rs.VOut[n]-want) > 1e-9 {
			t.Fatalf("col %d: %v vs %v", n, rs.VOut[n], want)
		}
	}
}
