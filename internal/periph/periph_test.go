package periph

import (
	"math"
	"testing"
	"testing/quick"

	"mnsim/internal/tech"
)

var n45 = tech.MustNode(45)

func TestPerfPlus(t *testing.T) {
	a := Perf{1, 2, 3, 4}
	b := Perf{10, 20, 30, 40}
	got := a.Plus(b)
	want := Perf{11, 22, 33, 44}
	if got != want {
		t.Fatalf("Plus = %+v", got)
	}
}

func TestPerfScaleRepeat(t *testing.T) {
	p := Perf{1, 2, 3, 4}
	s := p.Scale(3)
	if s != (Perf{3, 6, 9, 4}) {
		t.Fatalf("Scale = %+v", s)
	}
	r := p.Repeat(3)
	if r != (Perf{1, 6, 3, 12}) {
		t.Fatalf("Repeat = %+v", r)
	}
}

func TestSumAndParallel(t *testing.T) {
	a := Perf{1, 1, 1, 5}
	b := Perf{2, 2, 2, 3}
	s := Sum(a, b)
	if s.Latency != 8 || s.Area != 3 {
		t.Fatalf("Sum = %+v", s)
	}
	p := Parallel(a, b)
	if p.Latency != 5 || p.Area != 3 || p.DynamicEnergy != 3 {
		t.Fatalf("Parallel = %+v", p)
	}
	if got := Sum(); got != (Perf{}) {
		t.Fatalf("empty Sum = %+v", got)
	}
}

// Property: Sum is associative in all fields.
func TestSumAssociative(t *testing.T) {
	f := func(a1, a2, a3, b1, b2, b3 float64) bool {
		for _, v := range []float64{a1, a2, a3, b1, b2, b3} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e30 {
				return true
			}
		}
		x := Perf{a1, a2, a3, b1}
		y := Perf{a2, a3, b1, b2}
		z := Perf{a3, b1, b2, b3}
		l := Sum(Sum(x, y), z)
		r := Sum(x, Sum(y, z))
		near := func(p, q float64) bool { return math.Abs(p-q) <= 1e-9*(1+math.Abs(p)) }
		return near(l.Area, r.Area) && near(l.DynamicEnergy, r.DynamicEnergy) &&
			near(l.StaticPower, r.StaticPower) && near(l.Latency, r.Latency)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func allPositive(t *testing.T, name string, p Perf) {
	t.Helper()
	if p.Area <= 0 || p.DynamicEnergy <= 0 || p.StaticPower <= 0 || p.Latency <= 0 {
		t.Errorf("%s has non-positive field: %+v", name, p)
	}
}

func TestDAC(t *testing.T) {
	p, err := DAC(n45, 8)
	if err != nil {
		t.Fatal(err)
	}
	allPositive(t, "DAC", p)
	small, _ := DAC(n45, 4)
	if small.Area >= p.Area {
		t.Error("DAC area should grow with precision")
	}
	if _, err := DAC(n45, 0); err == nil {
		t.Error("0-bit DAC should fail")
	}
	if _, err := DAC(n45, 65); err == nil {
		t.Error("65-bit DAC should fail")
	}
}

func TestADCKinds(t *testing.T) {
	for _, k := range []ADCKind{ADCVariableSA, ADCSAR, ADCFlash} {
		p, err := ADC(n45, k, 8)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		allPositive(t, k.String(), p)
	}
	if _, err := ADC(n45, ADCKind(9), 8); err == nil {
		t.Error("unknown kind should fail")
	}
	if _, err := ADC(n45, ADCSAR, 0); err == nil {
		t.Error("0-bit ADC should fail")
	}
}

func TestADCTradeOffs(t *testing.T) {
	sar, _ := ADC(n45, ADCSAR, 8)
	flash, _ := ADC(n45, ADCFlash, 8)
	if flash.Latency >= sar.Latency {
		t.Error("flash should be faster than SAR")
	}
	if flash.Area <= sar.Area {
		t.Error("flash should be larger than SAR")
	}
	vsa, _ := ADC(n45, ADCVariableSA, 8)
	if vsa.Latency != 20e-9 {
		t.Errorf("reference SA latency = %v, want 20ns (50 MHz)", vsa.Latency)
	}
}

func TestParseADCKind(t *testing.T) {
	for s, want := range map[string]ADCKind{"VariableSA": ADCVariableSA, "SA": ADCVariableSA, "SAR": ADCSAR, "Flash": ADCFlash} {
		got, err := ParseADCKind(s)
		if err != nil || got != want {
			t.Errorf("ParseADCKind(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseADCKind("Sigma"); err == nil {
		t.Error("unknown spelling should fail")
	}
	if s := ADCKind(9).String(); s != "ADCKind(9)" {
		t.Errorf("String = %q", s)
	}
}

// The computation-oriented decoder (Fig. 4b) adds a NOR per line: slightly
// larger and one gate slower than the memory-oriented one, and its COMPUTE
// operation drives all lines.
func TestDecoderComputeOriented(t *testing.T) {
	mem, err := Decoder(n45, 128, false)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Decoder(n45, 128, true)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Area <= mem.Area {
		t.Error("compute decoder should be larger")
	}
	if comp.Latency <= mem.Latency {
		t.Error("compute decoder should be slower")
	}
	if comp.DynamicEnergy <= mem.DynamicEnergy {
		t.Error("compute decoder COMPUTE energy should exceed single-line select")
	}
	if _, err := Decoder(n45, 0, true); err == nil {
		t.Error("0-line decoder should fail")
	}
	if _, err := Decoder(n45, 1, false); err != nil {
		t.Errorf("1-line decoder: %v", err)
	}
}

func TestAdderAndSubtractor(t *testing.T) {
	a, err := Adder(n45, 8)
	if err != nil {
		t.Fatal(err)
	}
	allPositive(t, "adder", a)
	a16, _ := Adder(n45, 16)
	if a16.Latency <= a.Latency || a16.Area <= a.Area {
		t.Error("wider adder should be larger and slower")
	}
	s, err := Subtractor(n45, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s.Area <= a.Area {
		t.Error("subtractor should exceed adder area")
	}
	if _, err := Adder(n45, -1); err == nil {
		t.Error("negative width should fail")
	}
	if _, err := Subtractor(n45, 0); err == nil {
		t.Error("0-bit subtractor should fail")
	}
}

func TestAdderTree(t *testing.T) {
	// 1 input: no adders at all.
	one, err := AdderTree(n45, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if one != (Perf{}) {
		t.Fatalf("1-input tree = %+v, want zero", one)
	}
	// 8 inputs: 7 adders in 3 levels with widths 8,9,10.
	tree, err := AdderTree(n45, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	a8, _ := Adder(n45, 8)
	a9, _ := Adder(n45, 9)
	a10, _ := Adder(n45, 10)
	wantArea := 4*a8.Area + 2*a9.Area + 1*a10.Area
	if math.Abs(tree.Area-wantArea)/wantArea > 1e-12 {
		t.Errorf("tree area = %v, want %v", tree.Area, wantArea)
	}
	wantLat := a8.Latency + a9.Latency + a10.Latency
	if math.Abs(tree.Latency-wantLat)/wantLat > 1e-12 {
		t.Errorf("tree latency = %v, want %v", tree.Latency, wantLat)
	}
	// Odd input counts pass the straggler up a level: 5 inputs -> 4 adders.
	odd, err := AdderTree(n45, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	a9b, _ := Adder(n45, 9)
	wantOdd := 2*a8.Area + a9b.Area + a10.Area
	if math.Abs(odd.Area-wantOdd)/wantOdd > 1e-12 {
		t.Errorf("odd tree area = %v, want %v", odd.Area, wantOdd)
	}
	if _, err := AdderTree(n45, 0, 8); err == nil {
		t.Error("0-input tree should fail")
	}
	if _, err := AdderTree(n45, 4, 0); err == nil {
		t.Error("0-bit tree should fail")
	}
}

func TestAdderTreeWidthClamp(t *testing.T) {
	// A giant tree must not request >64-bit adders.
	if _, err := AdderTree(n45, 1<<20, 60); err != nil {
		t.Fatalf("wide tree: %v", err)
	}
}

func TestMuxAndCounter(t *testing.T) {
	m, err := Mux(n45, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	allPositive(t, "mux", m)
	m2, _ := Mux(n45, 2, 8)
	if m2.Area >= m.Area {
		t.Error("wider mux should be larger")
	}
	if _, err := Mux(n45, 0, 8); err == nil {
		t.Error("0-way mux should fail")
	}
	if _, err := Mux(n45, 2, 0); err == nil {
		t.Error("0-bit mux should fail")
	}
	c, err := Counter(n45, 8)
	if err != nil {
		t.Fatal(err)
	}
	allPositive(t, "counter", c)
	if _, err := Counter(n45, 0); err == nil {
		t.Error("0-bit counter should fail")
	}
}

func TestNeurons(t *testing.T) {
	sig, err := Neuron(n45, NeuronSigmoid, 8)
	if err != nil {
		t.Fatal(err)
	}
	relu, err := Neuron(n45, NeuronReLU, 8)
	if err != nil {
		t.Fatal(err)
	}
	inf, err := Neuron(n45, NeuronIntegrateFire, 8)
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]Perf{"sigmoid": sig, "relu": relu, "iaf": inf} {
		allPositive(t, name, p)
	}
	// ReLU is by far the cheapest neuron — the reason CNNs use it.
	if relu.Area >= sig.Area || relu.Area >= inf.Area {
		t.Error("ReLU should be the smallest neuron")
	}
	if _, err := Neuron(n45, NeuronKind(9), 8); err == nil {
		t.Error("unknown neuron should fail")
	}
	if _, err := Neuron(n45, NeuronSigmoid, 0); err == nil {
		t.Error("0-bit neuron should fail")
	}
	for k, want := range map[NeuronKind]string{NeuronSigmoid: "Sigmoid", NeuronReLU: "ReLU", NeuronIntegrateFire: "IntegrateFire"} {
		if k.String() != want {
			t.Errorf("String(%d) = %q", int(k), k.String())
		}
	}
	if NeuronKind(9).String() != "NeuronKind(9)" {
		t.Error("unknown neuron String")
	}
}

func TestRegisterAndLineBuffer(t *testing.T) {
	r, err := Register(n45, 8)
	if err != nil {
		t.Fatal(err)
	}
	allPositive(t, "register", r)
	lb, err := LineBuffer(n45, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lb.Area-10*r.Area)/lb.Area > 1e-12 {
		t.Errorf("line buffer area = %v, want %v", lb.Area, 10*r.Area)
	}
	if lb.Latency != r.Latency {
		t.Error("shift is concurrent: latency should equal one register")
	}
	if math.Abs(lb.DynamicEnergy-10*r.DynamicEnergy)/lb.DynamicEnergy > 1e-12 {
		t.Error("all stages shift per push")
	}
	if _, err := Register(n45, 0); err == nil {
		t.Error("0-bit register should fail")
	}
	if _, err := LineBuffer(n45, 0, 8); err == nil {
		t.Error("0-length buffer should fail")
	}
	if _, err := LineBuffer(n45, 4, 0); err == nil {
		t.Error("0-width buffer should fail")
	}
}

func TestMaxPool(t *testing.T) {
	p, err := MaxPool(n45, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	allPositive(t, "maxpool", p)
	p3, _ := MaxPool(n45, 3, 8)
	if p3.Area <= p.Area {
		t.Error("3x3 pooling should be larger than 2x2")
	}
	if _, err := MaxPool(n45, 0, 8); err == nil {
		t.Error("0-size pooling should fail")
	}
	if _, err := MaxPool(n45, 2, 0); err == nil {
		t.Error("0-bit pooling should fail")
	}
}

func TestIOInterface(t *testing.T) {
	p, err := IOInterface(n45, 128, 224*224*8)
	if err != nil {
		t.Fatal(err)
	}
	allPositive(t, "io", p)
	// Fewer ports -> more cycles -> longer latency.
	slow, _ := IOInterface(n45, 16, 224*224*8)
	if slow.Latency <= p.Latency {
		t.Error("narrower interface should be slower")
	}
	if _, err := IOInterface(n45, 0, 64); err == nil {
		t.Error("0-port interface should fail")
	}
	if _, err := IOInterface(n45, 8, 0); err == nil {
		t.Error("0-bit sample should fail")
	}
}

// All modules shrink monotonically with technology scaling.
func TestModulesScaleWithNode(t *testing.T) {
	n90 := tech.MustNode(90)
	build := func(n tech.CMOSNode) []Perf {
		dac, _ := DAC(n, 8)
		adc, _ := ADC(n, ADCSAR, 8)
		dec, _ := Decoder(n, 128, true)
		add, _ := Adder(n, 8)
		neu, _ := Neuron(n, NeuronSigmoid, 8)
		return []Perf{dac, adc, dec, add, neu}
	}
	old, cur := build(n90), build(n45)
	for i := range old {
		if cur[i].Area >= old[i].Area {
			t.Errorf("module %d area did not shrink from 90nm to 45nm", i)
		}
		if cur[i].DynamicEnergy >= old[i].DynamicEnergy {
			t.Errorf("module %d energy did not shrink", i)
		}
	}
}

func TestShifter(t *testing.T) {
	s, err := Shifter(n45, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	allPositive(t, "shifter", s)
	// Larger shift range needs more mux stages.
	wide, err := Shifter(n45, 8, 63)
	if err != nil {
		t.Fatal(err)
	}
	if wide.Area <= s.Area || wide.Latency <= s.Latency {
		t.Error("wider shift range should cost more")
	}
	// Zero range still instantiates one stage (pass-through wiring).
	zero, err := Shifter(n45, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	allPositive(t, "zero-shift", zero)
	if _, err := Shifter(n45, 0, 4); err == nil {
		t.Error("0-bit shifter accepted")
	}
	if _, err := Shifter(n45, 8, -1); err == nil {
		t.Error("negative range accepted")
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
