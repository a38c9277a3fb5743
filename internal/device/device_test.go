package device

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBuiltinModelsValid(t *testing.T) {
	for _, m := range []Model{RRAM(), PCM()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	if m, err := ByName("RRAM"); err != nil || m.Name != "RRAM" {
		t.Fatalf("ByName(RRAM) = %v, %v", m.Name, err)
	}
	if m, err := ByName("PCM"); err != nil || m.Name != "PCM" {
		t.Fatalf("ByName(PCM) = %v, %v", m.Name, err)
	}
	if _, err := ByName("FeFET"); err == nil {
		t.Fatal("ByName(FeFET) should fail")
	}
}

func TestParseCellType(t *testing.T) {
	for s, want := range map[string]CellType{"1T1R": Cell1T1R, "0T1R": Cell0T1R} {
		got, err := ParseCellType(s)
		if err != nil || got != want {
			t.Errorf("ParseCellType(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Errorf("String() = %q, want %q", got.String(), s)
		}
	}
	if _, err := ParseCellType("2T2R"); err == nil {
		t.Fatal("ParseCellType(2T2R) should fail")
	}
	if s := CellType(9).String(); s != "CellType(9)" {
		t.Fatalf("unknown CellType String = %q", s)
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	bad := []func(*Model){
		func(m *Model) { m.RMin = -1 },
		func(m *Model) { m.RMax = m.RMin / 2 },
		func(m *Model) { m.LevelBits = 0 },
		func(m *Model) { m.LevelBits = 11 },
		func(m *Model) { m.ReadVoltage = 0 },
		func(m *Model) { m.NonlinearVc = 0 },
		func(m *Model) { m.Variation = 0.6 },
		func(m *Model) { m.FeatureNM = 0 },
	}
	for i, mutate := range bad {
		m := RRAM()
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid model", i)
		}
	}
}

func TestLevelResistanceEndpoints(t *testing.T) {
	m := RRAM()
	r0, err := m.LevelResistance(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r0-m.RMax)/m.RMax > 1e-12 {
		t.Errorf("level 0 = %v, want RMax %v", r0, m.RMax)
	}
	rTop, err := m.LevelResistance(m.Levels() - 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rTop-m.RMin)/m.RMin > 1e-12 {
		t.Errorf("top level = %v, want RMin %v", rTop, m.RMin)
	}
	if _, err := m.LevelResistance(-1); err == nil {
		t.Error("negative level should fail")
	}
	if _, err := m.LevelResistance(m.Levels()); err == nil {
		t.Error("overflow level should fail")
	}
}

// Levels are uniform in conductance: the weight stored by level i must be
// linear in i, which is what makes the crossbar an analog MVM engine.
func TestLevelsLinearInConductance(t *testing.T) {
	m := RRAM()
	levelG := func(i int) float64 {
		r, err := m.LevelResistance(i)
		if err != nil {
			t.Fatal(err)
		}
		return 1 / r
	}
	g0, g1 := levelG(0), levelG(1)
	step := g1 - g0
	for i := 2; i < m.Levels(); i++ {
		gi := levelG(i)
		want := g0 + float64(i)*step
		if math.Abs(gi-want)/want > 1e-9 {
			t.Fatalf("level %d conductance %v, want %v", i, gi, want)
		}
	}
}

func TestHarmonicMean(t *testing.T) {
	m := Model{RMin: 500, RMax: 500e3}
	want := 2 / (1/500.0 + 1/500e3)
	if got := m.HarmonicMeanR(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("HarmonicMeanR = %v, want %v", got, want)
	}
}

// The I-V calibration contract: at the read voltage the secant resistance
// equals the programmed state exactly.
func TestEffectiveRCalibratedAtReadVoltage(t *testing.T) {
	m := RRAM()
	for _, r := range []float64{m.RMin, 1e3, 10e3, m.RMax} {
		got := m.EffectiveR(m.ReadVoltage, r)
		if math.Abs(got-r)/r > 1e-12 {
			t.Errorf("EffectiveR(Vread, %v) = %v", r, got)
		}
	}
}

// Below the read voltage the sinh device looks more resistive; above, less.
func TestEffectiveRMonotoneInVoltage(t *testing.T) {
	m := RRAM()
	r := 10e3
	low := m.EffectiveR(m.ReadVoltage/4, r)
	high := m.EffectiveR(m.ReadVoltage*1.5, r)
	if low <= r {
		t.Errorf("EffectiveR at low V = %v, want > %v", low, r)
	}
	if high >= r {
		t.Errorf("EffectiveR at high V = %v, want < %v", high, r)
	}
}

func TestEffectiveRZeroVoltageLimit(t *testing.T) {
	m := RRAM()
	r := 10e3
	atZero := m.EffectiveR(0, r)
	near := m.EffectiveR(1e-9, r)
	if math.Abs(atZero-near)/near > 1e-6 {
		t.Fatalf("zero-voltage limit %v disagrees with V→0 value %v", atZero, near)
	}
}

// Property: the I-V law is odd-symmetric and strictly increasing.
func TestCurrentOddAndMonotone(t *testing.T) {
	m := RRAM()
	f := func(v float64) bool {
		v = math.Mod(math.Abs(v), 1.0) // keep in a sane voltage range
		i1 := m.Current(v, 10e3)
		i2 := m.Current(-v, 10e3)
		if math.Abs(i1+i2) > 1e-15 {
			return false
		}
		return m.Current(v+0.01, 10e3) > i1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: conductance dI/dV matches the numerical derivative of Current.
func TestConductanceMatchesDerivative(t *testing.T) {
	m := RRAM()
	const h = 1e-7
	for _, v := range []float64{-0.4, -0.1, 0, 0.05, 0.2, 0.45} {
		num := (m.Current(v+h, 10e3) - m.Current(v-h, 10e3)) / (2 * h)
		ana := m.Conductance(v, 10e3)
		if math.Abs(num-ana)/math.Abs(ana) > 1e-5 {
			t.Errorf("V=%v: dI/dV numeric %v vs analytic %v", v, num, ana)
		}
	}
}

func TestCellArea(t *testing.T) {
	m := RRAM() // 1T1R, W/L=2, F=45nm
	f := 0.045
	want := 3 * (2.0 + 1) * f * f
	if got := m.CellArea(); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("1T1R area = %v, want %v", got, want)
	}
	m.Type = Cell0T1R
	want = 4 * f * f
	if got := m.CellArea(); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("0T1R area = %v, want %v", got, want)
	}
	// Cross-point cells are denser than MOS-accessed cells.
	m2 := RRAM()
	if m.CellArea() >= m2.CellArea() {
		t.Error("cross-point cell should be smaller than 1T1R")
	}
}

func TestQuantizeWeight(t *testing.T) {
	m := RRAM()
	lvl, r, err := m.QuantizeWeight(0)
	if err != nil || lvl != 0 || math.Abs(r-m.RMax)/m.RMax > 1e-12 {
		t.Fatalf("QuantizeWeight(0) = %d, %v, %v", lvl, r, err)
	}
	lvl, r, err = m.QuantizeWeight(1)
	if err != nil || lvl != m.Levels()-1 || math.Abs(r-m.RMin)/m.RMin > 1e-12 {
		t.Fatalf("QuantizeWeight(1) = %d, %v, %v", lvl, r, err)
	}
	if _, _, err := m.QuantizeWeight(1.5); err == nil {
		t.Fatal("QuantizeWeight(1.5) should fail")
	}
	if _, _, err := m.QuantizeWeight(-0.1); err == nil {
		t.Fatal("QuantizeWeight(-0.1) should fail")
	}
}

// Property: quantization is monotone — larger weights never map to lower levels.
func TestQuantizeMonotone(t *testing.T) {
	m := RRAM()
	f := func(a, b float64) bool {
		a, b = math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))
		if a > b {
			a, b = b, a
		}
		la, _, err1 := m.QuantizeWeight(a)
		lb, _, err2 := m.QuantizeWeight(b)
		return err1 == nil && err2 == nil && la <= lb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEnergies(t *testing.T) {
	m := RRAM()
	// A 10 ns read through an average-case cell at the read voltage.
	read := m.ReadVoltage * m.ReadVoltage / m.HarmonicMeanR() * 10e-9
	if read <= 0 {
		t.Errorf("read energy = %v", read)
	}
	if e := m.WriteEnergy(); e <= read {
		t.Errorf("WriteEnergy %v should exceed a 10ns read's %v (high-writing-cost problem)", e, read)
	}
}
