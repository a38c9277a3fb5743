package arch

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"mnsim/internal/config"
	"mnsim/internal/device"
	"mnsim/internal/periph"
	"mnsim/internal/tech"
)

func refDesign(size, p int) *Design {
	return &Design{
		CrossbarSize:      size,
		Parallelism:       p,
		WeightPolarity:    2,
		TwoCrossbarSigned: true,
		WeightBits:        4,
		DataBits:          8,
		CMOS:              tech.MustNode(45),
		Wire:              tech.MustInterconnect(45),
		Dev:               device.RRAM(),
		ADC:               periph.ADCVariableSA,
		Neuron:            periph.NeuronSigmoid,
		AreaCoefficient:   DefaultAreaCoefficient,
	}
}

func TestDesignValidate(t *testing.T) {
	if err := refDesign(128, 0).Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Design){
		func(d *Design) { d.CrossbarSize = 1 },
		func(d *Design) { d.Parallelism = -1 },
		func(d *Design) { d.Parallelism = d.CrossbarSize + 1 },
		func(d *Design) { d.WeightPolarity = 3 },
		func(d *Design) { d.WeightBits = 0 },
		func(d *Design) { d.DataBits = 0 },
		func(d *Design) { d.AreaCoefficient = 0 },
		func(d *Design) { d.Dev.RMin = -1 },
	}
	for i, mutate := range cases {
		d := refDesign(128, 0)
		mutate(d)
		if err := d.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestCellsPerWeight(t *testing.T) {
	d := refDesign(128, 0) // 4-bit weights on 7-bit cells, signed two-crossbar
	if got := d.CellsPerWeight(); got != 1 {
		t.Fatalf("CellsPerWeight = %d, want 1", got)
	}
	if got := d.CrossbarsPerUnit(); got != 2 {
		t.Fatalf("CrossbarsPerUnit = %d, want 2", got)
	}
	// Same-crossbar signed mapping doubles the columns instead.
	d.TwoCrossbarSigned = false
	if got := d.CellsPerWeight(); got != 2 {
		t.Fatalf("same-crossbar CellsPerWeight = %d, want 2", got)
	}
	if got := d.CrossbarsPerUnit(); got != 1 {
		t.Fatalf("same-crossbar CrossbarsPerUnit = %d, want 1", got)
	}
	// 8-bit weights on 7-bit cells need two slices (PRIME-style splitting).
	d2 := refDesign(128, 0)
	d2.WeightBits = 8
	if got := d2.BitSlices(); got != 2 {
		t.Fatalf("BitSlices = %d, want 2", got)
	}
	if got := d2.CellsPerWeight(); got != 2 {
		t.Fatalf("8-bit CellsPerWeight = %d, want 2", got)
	}
	// Unsigned weights never double.
	d3 := refDesign(128, 0)
	d3.WeightPolarity = 1
	d3.TwoCrossbarSigned = false
	if got := d3.CrossbarsPerUnit(); got != 1 {
		t.Fatalf("unsigned CrossbarsPerUnit = %d", got)
	}
}

func TestEffectiveParallelism(t *testing.T) {
	d := refDesign(128, 0)
	if got := d.EffectiveParallelism(128); got != 128 {
		t.Fatalf("p=0 -> %d, want all 128", got)
	}
	d.Parallelism = 16
	if got := d.EffectiveParallelism(128); got != 16 {
		t.Fatalf("p=16 -> %d", got)
	}
	if got := d.EffectiveParallelism(8); got != 8 {
		t.Fatalf("p above cols -> %d, want clamp to 8", got)
	}
}

// newUnit builds a lone computation unit for a rows×cols weight block
// through the same modules.init and Unit.build that a plan runs.
func newUnit(t *testing.T, d *Design, rows, cols int) *Unit {
	t.Helper()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	m := new(modules)
	if err := m.init(d); err != nil {
		t.Fatal(err)
	}
	u := new(Unit)
	if err := u.build(d, m, rows, cols); err != nil {
		t.Fatal(err)
	}
	return u
}

func TestNewUnitBasics(t *testing.T) {
	u := newUnit(t, refDesign(128, 16), 128, 128)
	if u.PhysCols != 128 || u.ReadCircuits != 16 || u.Cycles != 8 {
		t.Fatalf("unit: physCols %d p %d cycles %d", u.PhysCols, u.ReadCircuits, u.Cycles)
	}
	if u.Compute.Area <= 0 || u.Compute.DynamicEnergy <= 0 || u.Compute.Latency <= 0 {
		t.Fatalf("compute perf: %+v", u.Compute)
	}
}

// Fewer read circuits means more sequential cycles: latency up, ADC area down.
func TestUnitParallelismTradeOff(t *testing.T) {
	full := newUnit(t, refDesign(128, 0), 128, 128)
	serial := newUnit(t, refDesign(128, 1), 128, 128)
	if serial.Compute.Latency <= full.Compute.Latency {
		t.Error("serial unit should be slower")
	}
	if serial.Compute.Area >= full.Compute.Area {
		t.Error("serial unit should be smaller")
	}
	if serial.Cycles != 128 || full.Cycles != 1 {
		t.Errorf("cycles: serial %d full %d", serial.Cycles, full.Cycles)
	}
}

// Writes are far more expensive than reads — the high-writing-cost problem
// that makes fixed-weight inference the memristor sweet spot.
func TestUnitWriteCostExceedsRead(t *testing.T) {
	u := newUnit(t, refDesign(128, 0), 128, 128)
	if u.WriteOp.Latency <= u.ReadOp.Latency {
		t.Error("write should be slower than read")
	}
	if u.WriteOp.DynamicEnergy <= u.ReadOp.DynamicEnergy {
		t.Error("write should cost more energy than read")
	}
}

func TestNewBankTiling(t *testing.T) {
	d := refDesign(128, 0)
	b, err := NewBank(d, LayerDims{Rows: 2048, Cols: 1024, Passes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if b.RowBlocks != 16 || b.ColBlocks != 8 || b.Units != 128 {
		t.Fatalf("tiling: %d x %d = %d", b.RowBlocks, b.ColBlocks, b.Units)
	}
	if b.PassPerf.Area <= 0 || b.SampleEnergy <= 0 || b.SampleLatency <= 0 {
		t.Fatalf("bank perf: %+v", b.PassPerf)
	}
	// A small layer fits one unit (the Fig. 2a small-network case).
	small, err := NewBank(d, LayerDims{Rows: 64, Cols: 16, Passes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if small.Units != 1 {
		t.Fatalf("small layer should need 1 unit, got %d", small.Units)
	}
	if _, err := NewBank(d, LayerDims{Rows: 0, Cols: 4, Passes: 1}); err == nil {
		t.Error("bad layer accepted")
	}
	if _, err := NewBank(d, LayerDims{Rows: 4, Cols: 4, Passes: 0}); err == nil {
		t.Error("zero passes accepted")
	}
	bad := refDesign(128, 0)
	bad.DataBits = 0
	if _, err := NewBank(bad, LayerDims{Rows: 4, Cols: 4, Passes: 1}); err == nil {
		t.Error("invalid design accepted")
	}
}

// Wide weights can overflow the crossbar entirely.
func TestNewBankWeightOverflow(t *testing.T) {
	d := refDesign(2, 0)
	d.WeightBits = 16
	d.TwoCrossbarSigned = false // 16-bit weights need 3 slices x2 = 6 cells > 2
	if _, err := NewBank(d, LayerDims{Rows: 2, Cols: 2, Passes: 1}); err == nil {
		t.Error("weight overflow accepted")
	}
}

// A CNN layer multiplies energy and latency by its pass count and adds the
// pooling chain.
func TestBankCNNPassesAndPooling(t *testing.T) {
	d := refDesign(128, 0)
	d.Neuron = periph.NeuronReLU
	fc := LayerDims{Rows: 1152, Cols: 256, Passes: 1}
	conv := LayerDims{Rows: 1152, Cols: 256, Passes: 196, PoolK: 2, OutBufLen: 30, OutChannels: 256}
	bFC, err := NewBank(d, fc)
	if err != nil {
		t.Fatal(err)
	}
	bConv, err := NewBank(d, conv)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bConv.SampleEnergy/bConv.PassPerf.DynamicEnergy-196) > 1e-9 {
		t.Error("conv sample energy should be passes x pass energy")
	}
	if bConv.PassPerf.Area <= bFC.PassPerf.Area {
		t.Error("pooling chain should add area")
	}
}

func TestBankAccuracy(t *testing.T) {
	b, err := NewBank(refDesign(128, 0), LayerDims{Rows: 2048, Cols: 1024, Passes: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Accuracy(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WorstRate <= 0 {
		t.Fatalf("worst rate %v", rep.WorstRate)
	}
	dirty, err := b.Accuracy(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if dirty.WorstRate <= rep.WorstRate {
		t.Error("input error should compound")
	}
}

func TestAcceleratorEvaluate(t *testing.T) {
	d := refDesign(128, 0)
	layers := []LayerDims{
		{Rows: 128, Cols: 128, Passes: 1},
		{Rows: 128, Cols: 128, Passes: 1},
		{Rows: 128, Cols: 10, Passes: 1},
	}
	a, err := NewAccelerator(d, layers, [2]int{128, 128})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Banks) != 3 {
		t.Fatalf("%d banks", len(a.Banks))
	}
	r, err := a.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if r.AreaMM2 <= 0 || r.Power <= 0 || r.EnergyPerSample <= 0 {
		t.Fatalf("report: %+v", r)
	}
	// Pipeline cycle is the max bank pass latency; sample latency covers
	// all banks plus the interfaces, so it must exceed the cycle.
	if r.SampleLatency <= r.PipelineCycle {
		t.Error("sample latency should exceed the pipeline cycle")
	}
	want := 0.0
	for _, b := range a.Banks {
		if b.PassPerf.Latency > want {
			want = b.PassPerf.Latency
		}
	}
	if math.Abs(r.PipelineCycle-want) > 1e-18 {
		t.Errorf("pipeline cycle %v, want max bank latency %v", r.PipelineCycle, want)
	}
	if r.ErrorWorst <= 0 || r.ErrorWorst > 1 {
		t.Errorf("worst error %v", r.ErrorWorst)
	}
	if a.TotalUnits() != 3 || a.TotalCrossbars() != 6 {
		t.Errorf("units %d crossbars %d", a.TotalUnits(), a.TotalCrossbars())
	}
}

func TestAcceleratorErrors(t *testing.T) {
	d := refDesign(128, 0)
	if _, err := NewAccelerator(d, nil, [2]int{128, 128}); err == nil {
		t.Error("empty layer stack accepted")
	}
	if _, err := NewAccelerator(d, []LayerDims{{Rows: 0, Cols: 1, Passes: 1}}, [2]int{128, 128}); err == nil {
		t.Error("bad layer accepted")
	}
	bad := refDesign(128, 0)
	bad.WeightBits = 0
	if _, err := NewAccelerator(bad, []LayerDims{{Rows: 4, Cols: 4, Passes: 1}}, [2]int{128, 128}); err == nil {
		t.Error("bad design accepted")
	}
	if _, err := NewAccelerator(d, []LayerDims{{Rows: 4, Cols: 4, Passes: 1}}, [2]int{0, 1}); err == nil {
		t.Error("bad interface accepted")
	}
}

// Multi-layer error accumulates across banks (Eq. 15): a deeper stack of
// the same layer has a larger final worst error.
func TestErrorAccumulatesAcrossLayers(t *testing.T) {
	d := refDesign(128, 0)
	layer := LayerDims{Rows: 512, Cols: 512, Passes: 1}
	one, err := NewAccelerator(d, []LayerDims{layer}, [2]int{128, 128})
	if err != nil {
		t.Fatal(err)
	}
	three, err := NewAccelerator(d, []LayerDims{layer, layer, layer}, [2]int{128, 128})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := one.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	r3, err := three.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if r3.ErrorWorst <= r1.ErrorWorst {
		t.Fatalf("3-layer worst %v not above 1-layer %v", r3.ErrorWorst, r1.ErrorWorst)
	}
}

func TestControllerRun(t *testing.T) {
	d := refDesign(128, 0)
	a, err := NewAccelerator(d, []LayerDims{{Rows: 128, Cols: 64, Passes: 1}}, [2]int{128, 128})
	if err != nil {
		t.Fatal(err)
	}
	ctl := &Controller{Accel: a}
	// One input sample: every bank runs its per-sample pass count.
	var inferSample []Instruction
	for i, b := range a.Banks {
		for p := 0; p < b.Layer.Passes; p++ {
			inferSample = append(inferSample, Instruction{Op: OpCompute, Bank: i})
		}
	}
	prog := append(ProgramNetwork(a), inferSample...)
	st, err := ctl.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if st.Instructions != len(prog) || st.Time <= 0 || st.Energy <= 0 {
		t.Fatalf("stats: %+v", st)
	}
	// Loading weights costs much more than one inference (the paper's
	// motivation for fixed weights).
	write, err := ctl.Run(ProgramNetwork(a))
	if err != nil {
		t.Fatal(err)
	}
	infer, err := ctl.Run(inferSample)
	if err != nil {
		t.Fatal(err)
	}
	if write.Energy <= infer.Energy {
		t.Errorf("write energy %v should exceed inference energy %v", write.Energy, infer.Energy)
	}
	// Error paths.
	if _, err := ctl.Run([]Instruction{{Op: OpCompute, Bank: 7}}); err == nil {
		t.Error("bad bank accepted")
	}
	if _, err := ctl.Run([]Instruction{{Op: OpRead, Bank: 0, Count: 0}}); err == nil {
		t.Error("zero-count read accepted")
	}
	if _, err := ctl.Run([]Instruction{{Op: OpWrite, Bank: 0, Count: 0}}); err == nil {
		t.Error("zero-count write accepted")
	}
	if _, err := ctl.Run([]Instruction{{Op: Opcode(9), Bank: 0}}); err == nil {
		t.Error("unknown opcode accepted")
	}
}

func TestOpcodeString(t *testing.T) {
	for op, want := range map[Opcode]string{OpWrite: "WRITE", OpRead: "READ", OpCompute: "COMPUTE"} {
		if op.String() != want {
			t.Errorf("%d -> %q", int(op), op.String())
		}
	}
	if Opcode(9).String() != "Opcode(9)" {
		t.Error("unknown opcode String")
	}
}

func TestFromConfig(t *testing.T) {
	src := `
Network_Type = CNN
Network_Scale = 1152x256, 256x10
Crossbar_Size = 64
CMOS_Tech = 45
Interconnect_Tech = 45
Parallelism_Degree = 8
Weight_Bits = 4
Data_Bits = 8
`
	cfg, err := config.Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	d, layers, err := FromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.CrossbarSize != 64 || d.Parallelism != 8 {
		t.Errorf("design: %+v", d)
	}
	if d.Neuron != periph.NeuronReLU {
		t.Errorf("CNN should select ReLU, got %v", d.Neuron)
	}
	if len(layers) != 2 || layers[0].Rows != 1152 || layers[0].PoolK != cfg.PoolingSize {
		t.Errorf("layers: %+v", layers)
	}
	// The whole chain builds and evaluates.
	a, err := NewAccelerator(&d, layers, [2]int(cfg.InterfaceNumber))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Evaluate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromConfigNeuronByType(t *testing.T) {
	for typ, want := range map[string]periph.NeuronKind{
		"ANN": periph.NeuronSigmoid,
		"SNN": periph.NeuronIntegrateFire,
		"CNN": periph.NeuronReLU,
	} {
		cfg := config.Default()
		cfg.NetworkType = typ
		cfg.NetworkScale = []config.LayerShape{{Rows: 64, Cols: 64}}
		d, _, err := FromConfig(cfg)
		if err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		if d.Neuron != want {
			t.Errorf("%s -> %v, want %v", typ, d.Neuron, want)
		}
	}
}

func TestFromConfigErrors(t *testing.T) {
	base := func() config.Config {
		cfg := config.Default()
		cfg.NetworkScale = []config.LayerShape{{Rows: 64, Cols: 64}}
		return cfg
	}
	cases := []func(*config.Config){
		func(c *config.Config) { c.NetworkScale = nil },
		func(c *config.Config) { c.CMOSTech = 77 },
		func(c *config.Config) { c.InterconnectTech = 77 },
		func(c *config.Config) { c.MemristorModel = "FeFET" },
		func(c *config.Config) { c.CellType = "2T2R" },
		func(c *config.Config) { c.ADCDesign = "Sigma" },
	}
	for i, mutate := range cases {
		cfg := base()
		mutate(&cfg)
		if _, _, err := FromConfig(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestLayerDimsValidate(t *testing.T) {
	good := LayerDims{Rows: 4, Cols: 4, Passes: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []LayerDims{
		{Rows: 0, Cols: 4, Passes: 1},
		{Rows: 4, Cols: 0, Passes: 1},
		{Rows: 4, Cols: 4, Passes: 0},
		{Rows: 4, Cols: 4, Passes: 1, PoolK: -1},
		{Rows: 4, Cols: 4, Passes: 1, OutBufLen: -1},
		{Rows: 4, Cols: 4, Passes: 1, OutChannels: -1},
	}
	for i, l := range bad {
		l := l
		if err := l.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestFromConfigInnerPipeline(t *testing.T) {
	cfg := config.Default()
	cfg.NetworkScale = []config.LayerShape{{Rows: 64, Cols: 64}}
	cfg.InnerPipeline = true
	d, _, err := FromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !d.InnerPipeline {
		t.Fatal("InnerPipeline not propagated")
	}
}

// Property: bank area and energy are monotone in the layer width (more
// output columns can only add units, neurons, and buffers).
func TestBankMonotoneInWidth(t *testing.T) {
	d := refDesign(128, 0)
	prevArea, prevEnergy := 0.0, 0.0
	for _, cols := range []int{64, 128, 512, 1024, 2048} {
		b, err := NewBank(d, LayerDims{Rows: 512, Cols: cols, Passes: 1})
		if err != nil {
			t.Fatal(err)
		}
		if b.PassPerf.Area <= prevArea {
			t.Fatalf("cols %d: area %v not above %v", cols, b.PassPerf.Area, prevArea)
		}
		if b.PassPerf.DynamicEnergy <= prevEnergy {
			t.Fatalf("cols %d: energy %v not above %v", cols, b.PassPerf.DynamicEnergy, prevEnergy)
		}
		prevArea, prevEnergy = b.PassPerf.Area, b.PassPerf.DynamicEnergy
	}
}

// Property: halving the crossbar size at fixed layer roughly doubles the
// bank area (the Table V scaling law).
func TestBankAreaScalingLaw(t *testing.T) {
	layer := LayerDims{Rows: 2048, Cols: 1024, Passes: 1}
	var prev float64
	for _, size := range []int{512, 256, 128, 64, 32, 16} {
		b, err := NewBank(refDesign(size, 0), layer)
		if err != nil {
			t.Fatal(err)
		}
		if prev > 0 {
			ratio := b.PassPerf.Area / prev
			if ratio < 1.4 || ratio > 3.0 {
				t.Fatalf("size %d: area grew %.2fx on halving, want ~2x", size, ratio)
			}
		}
		prev = b.PassPerf.Area
	}
}

// poison sets every field of the struct v points to, exported or not, to a
// value no build produces: -7 for integers, NaN for floats, true for
// booleans, a new zero value for pointers, recursing into nested structs.
func poison(t *testing.T, v reflect.Value) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(-7)
		case reflect.Float64:
			f.SetFloat(math.NaN())
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
		case reflect.Struct:
			poison(t, f)
		default:
			t.Fatalf("poison: field %s of kind %s", v.Type().Field(i).Name, f.Kind())
		}
	}
}

// TestBuildOverwritesEveryField: Unit.build and Bank.build assign their
// fields one by one, so a field they forget would keep whatever the reused
// storage held. Building into poisoned storage must equal building into
// zero storage, field for field, with the inner pipeline on and off.
func TestBuildOverwritesEveryField(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		d := refDesign(128, 4)
		d.InnerPipeline = pipelined
		pl := new(Plan)
		if err := pl.reset(d, []LayerDims{{Rows: 300, Cols: 200, Passes: 3, PoolK: 2}}); err != nil {
			t.Fatal(err)
		}
		bp := &pl.banks[0]
		shape := pl.shapes[bp.shape]
		var wantU, gotU Unit
		poison(t, reflect.ValueOf(&gotU).Elem())
		if err := wantU.build(d, &pl.mods, shape[0], shape[1]); err != nil {
			t.Fatal(err)
		}
		if err := gotU.build(d, &pl.mods, shape[0], shape[1]); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotU, wantU) {
			t.Errorf("pipelined=%v: unit built over poisoned storage\n got %+v\nwant %+v", pipelined, gotU, wantU)
		}
		var wantB, gotB Bank
		poison(t, reflect.ValueOf(&gotB).Elem())
		wantB.build(d, bp, &wantU)
		gotB.build(d, bp, &wantU)
		if !reflect.DeepEqual(gotB, wantB) {
			t.Errorf("pipelined=%v: bank built over poisoned storage\n got %+v\nwant %+v", pipelined, gotB, wantB)
		}
	}
}
