package arch_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mnsim/internal/accuracy"
	"mnsim/internal/arch"
	"mnsim/internal/device"
	"mnsim/internal/nn"
	"mnsim/internal/periph"
	"mnsim/internal/tech"
)

func tableVIDesign(size, p, node, weightBits int, neuron periph.NeuronKind) *arch.Design {
	return &arch.Design{
		CrossbarSize: size, Parallelism: p,
		WeightPolarity: 2, TwoCrossbarSigned: true,
		WeightBits: weightBits, DataBits: 8,
		CMOS: tech.MustNode(45), Wire: tech.MustInterconnect(node), Dev: device.RRAM(),
		ADC: periph.ADCVariableSA, Neuron: neuron,
		AreaCoefficient: arch.DefaultAreaCoefficient,
	}
}

// The reference below is the accelerator as it was assembled before the
// parallelism-independent half moved into arch.Plan: every unit and bank
// builds each of its periph modules on the spot, the breakdown re-derives
// them, and the report runs the two-path error propagation through
// Bank.Accuracy. It shares no module code with the production path.

func refUnit(d *arch.Design, rows, cols int) (*arch.Unit, error) {
	physCols := cols * d.CellsPerWeight()
	xbar := d.Crossbar(d.CrossbarSize, d.CrossbarSize)
	u := &arch.Unit{Design: d, Rows: rows, Cols: cols, PhysCols: physCols, Xbar: &xbar}
	u.ReadCircuits = d.EffectiveParallelism(physCols)
	u.Cycles = (physCols + u.ReadCircuits - 1) / u.ReadCircuits

	n := d.CMOS
	nXbar := d.CrossbarsPerUnit()
	dac, err := periph.DAC(n, d.DataBits)
	if err != nil {
		return nil, err
	}
	dacs := dac.Scale(rows)
	rowDec, err := periph.Decoder(n, d.CrossbarSize, true)
	if err != nil {
		return nil, err
	}
	colDec, err := periph.Decoder(n, d.CrossbarSize, false)
	if err != nil {
		return nil, err
	}
	decoders := periph.Parallel(rowDec.Scale(nXbar), colDec.Scale(nXbar))
	adc, err := periph.ADC(n, d.ADC, d.ADCBits())
	if err != nil {
		return nil, err
	}
	mux, err := periph.Mux(n, u.Cycles, 1)
	if err != nil {
		return nil, err
	}
	bits := 1
	for 1<<uint(bits) < u.Cycles {
		bits++
	}
	ctr, err := periph.Counter(n, bits)
	if err != nil {
		return nil, err
	}
	readPath := periph.Sum(mux, adc)
	readCircuits := readPath.Scale(u.ReadCircuits * nXbar)
	var merge periph.Perf
	if d.WeightPolarity == 2 {
		sub, err := periph.Subtractor(n, d.DataBits)
		if err != nil {
			return nil, err
		}
		merge = sub.Scale(u.ReadCircuits)
	}
	if s := d.BitSlices(); s > 1 {
		sh, err := periph.Shifter(n, d.DataBits+s, d.Dev.LevelBits*(s-1))
		if err != nil {
			return nil, err
		}
		tree, err := periph.AdderTree(n, s, d.DataBits)
		if err != nil {
			return nil, err
		}
		merge = merge.Plus(periph.Sum(sh, tree).Scale(u.ReadCircuits))
	}
	xbarArea := u.Xbar.Area() * d.AreaCoefficient * float64(nXbar)
	xbarSettle := u.Xbar.Latency()
	u.Compute = periph.Perf{
		Area: xbarArea + dacs.Area + decoders.Area + readCircuits.Area +
			merge.Area + ctr.Area,
		StaticPower: dacs.StaticPower + decoders.StaticPower +
			readCircuits.StaticPower + merge.StaticPower + ctr.StaticPower,
	}
	u.FrontLatency = rowDec.Latency + dacs.Latency + xbarSettle
	u.ReadPassLatency = readPath.Latency
	u.MergeLatency = merge.Latency
	u.Compute.Latency = u.FrontLatency +
		float64(u.Cycles)*u.ReadPassLatency + u.MergeLatency
	u.Compute.DynamicEnergy = rowDec.DynamicEnergy + dacs.DynamicEnergy*float64(rows) +
		u.Xbar.ComputePower()*float64(nXbar)*(xbarSettle+float64(u.Cycles)*readPath.Latency) +
		readPath.DynamicEnergy*float64(u.ReadCircuits*nXbar*u.Cycles) +
		merge.DynamicEnergy + ctr.DynamicEnergy*float64(u.Cycles)
	u.ReadOp = periph.Perf{
		Area:          u.Compute.Area,
		StaticPower:   u.Compute.StaticPower,
		Latency:       rowDec.Latency + colDec.Latency + xbarSettle + adc.Latency,
		DynamicEnergy: rowDec.DynamicEnergy + colDec.DynamicEnergy + u.Xbar.ReadPower()/float64(u.Xbar.Cols)*xbarSettle + adc.DynamicEnergy,
	}
	u.WriteOp = periph.Perf{
		Area:          u.Compute.Area,
		StaticPower:   u.Compute.StaticPower,
		Latency:       rowDec.Latency + colDec.Latency + d.Dev.WriteLatency,
		DynamicEnergy: rowDec.DynamicEnergy + colDec.DynamicEnergy + d.Dev.WriteEnergy(),
	}
	return u, nil
}

func refMax(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func refMin(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// refBank builds one bank, sharing the unit of a bank in built with the
// same block shape.
func refBank(d *arch.Design, layer arch.LayerDims, built []*arch.Bank) (*arch.Bank, error) {
	if err := layer.Validate(); err != nil {
		return nil, err
	}
	s := d.CrossbarSize
	logicalCols := s / d.CellsPerWeight()
	if logicalCols < 1 {
		return nil, fmt.Errorf("crossbar size %d cannot hold one weight", s)
	}
	b := &arch.Bank{Design: d, Layer: layer}
	b.RowBlocks = (layer.Rows + s - 1) / s
	b.ColBlocks = (layer.Cols + logicalCols - 1) / logicalCols
	b.Units = b.RowBlocks * b.ColBlocks
	blockRows, blockCols := refMin(layer.Rows, s), refMin(layer.Cols, logicalCols)
	for _, o := range built {
		if o.Unit.Rows == blockRows && o.Unit.Cols == blockCols {
			b.Unit = o.Unit
		}
	}
	if b.Unit == nil {
		var err error
		if b.Unit, err = refUnit(d, blockRows, blockCols); err != nil {
			return nil, err
		}
	}
	u := b.Unit
	b.OutputsPerPass = refMin(layer.Cols, b.ColBlocks*u.ReadCircuits)
	n := d.CMOS
	tree, err := periph.AdderTree(n, b.RowBlocks, d.DataBits)
	if err != nil {
		return nil, err
	}
	trees := tree.Scale(refMax(b.OutputsPerPass, 1))
	var pool, poolBuf periph.Perf
	if layer.PoolK > 1 {
		if pool, err = periph.MaxPool(n, layer.PoolK, d.DataBits); err != nil {
			return nil, err
		}
		pool = pool.Scale(refMax(b.OutputsPerPass/(layer.PoolK*layer.PoolK), 1))
		if poolBuf, err = periph.LineBuffer(n, layer.PoolK*layer.PoolK, d.DataBits); err != nil {
			return nil, err
		}
		poolBuf = poolBuf.Scale(refMax(b.OutputsPerPass, 1))
	}
	neuron, err := periph.Neuron(n, d.Neuron, d.DataBits)
	if err != nil {
		return nil, err
	}
	neuronCount := layer.Cols
	if layer.PoolK > 1 {
		neuronCount = refMax(layer.Cols/(layer.PoolK*layer.PoolK), 1)
	}
	neurons := neuron.Scale(neuronCount)
	neurons.DynamicEnergy = neuron.DynamicEnergy * float64(refMax(b.OutputsPerPass, 1))
	var outBuf periph.Perf
	if layer.OutBufLen > 0 {
		lb, err := periph.LineBuffer(n, layer.OutBufLen, d.DataBits)
		if err != nil {
			return nil, err
		}
		outBuf = lb.Scale(refMax(layer.OutChannels, 1))
	} else {
		reg, err := periph.Register(n, d.DataBits)
		if err != nil {
			return nil, err
		}
		outBuf = reg.Scale(layer.Cols)
	}
	units := u.Compute.Scale(b.Units)
	b.PassPerf = periph.Perf{
		Area:        units.Area + trees.Area + pool.Area + poolBuf.Area + neurons.Area + outBuf.Area,
		StaticPower: units.StaticPower + trees.StaticPower + pool.StaticPower + poolBuf.StaticPower + neurons.StaticPower + outBuf.StaticPower,
		DynamicEnergy: units.DynamicEnergy + trees.DynamicEnergy +
			pool.DynamicEnergy + poolBuf.DynamicEnergy +
			neurons.DynamicEnergy + outBuf.DynamicEnergy,
	}
	if d.InnerPipeline {
		reg, err := periph.Register(n, d.DataBits)
		if err != nil {
			return nil, err
		}
		stageLat := []float64{u.FrontLatency, u.ReadPassLatency, u.MergeLatency,
			tree.Latency, neuron.Latency, outBuf.Latency}
		if layer.PoolK > 1 {
			stageLat = append(stageLat, pool.Latency)
		}
		b.Stages = len(stageLat)
		bound := reg.Scale(refMax(b.OutputsPerPass, 1) * (b.Stages - 1))
		b.PassPerf.Area += bound.Area
		b.PassPerf.StaticPower += bound.StaticPower
		b.PassPerf.DynamicEnergy += bound.DynamicEnergy
		cycle := reg.Latency
		for _, l := range stageLat {
			if l+reg.Latency > cycle {
				cycle = l + reg.Latency
			}
		}
		b.PassPerf.Latency = cycle * float64(u.Cycles)
		b.SampleLatency = cycle * (float64(layer.Passes*u.Cycles) + float64(b.Stages-1))
	} else {
		b.Stages = 1
		b.PassPerf.Latency = u.Compute.Latency + tree.Latency + pool.Latency +
			neuron.Latency + outBuf.Latency
		b.SampleLatency = b.PassPerf.Latency * float64(layer.Passes)
	}
	b.SampleEnergy = b.PassPerf.DynamicEnergy * float64(layer.Passes)
	return b, nil
}

// refBreakdown re-derives a bank's modules class by class.
func refBreakdown(b *arch.Bank) (map[arch.ModuleClass]periph.Perf, error) {
	d := b.Design
	n := d.CMOS
	u := b.Unit
	nXbar := d.CrossbarsPerUnit()
	out := map[arch.ModuleClass]periph.Perf{}
	xbar := periph.Perf{
		Area:          u.Xbar.Area() * d.AreaCoefficient * float64(nXbar),
		DynamicEnergy: u.Xbar.ComputePower() * float64(nXbar) * (u.FrontLatency + float64(u.Cycles)*u.ReadPassLatency),
	}
	out[arch.ClassCrossbar] = xbar.Scale(b.Units)
	dac, err := periph.DAC(n, d.DataBits)
	if err != nil {
		return nil, err
	}
	dacs := dac.Scale(u.Rows)
	dacs.DynamicEnergy = dac.DynamicEnergy * float64(u.Rows)
	out[arch.ClassDAC] = dacs.Scale(b.Units)
	adc, err := periph.ADC(n, d.ADC, d.ADCBits())
	if err != nil {
		return nil, err
	}
	mux, err := periph.Mux(n, u.Cycles, 1)
	if err != nil {
		return nil, err
	}
	readPath := periph.Sum(mux, adc)
	adcs := periph.Perf{
		Area:          readPath.Area * float64(u.ReadCircuits*nXbar),
		DynamicEnergy: readPath.DynamicEnergy * float64(u.ReadCircuits*nXbar*u.Cycles),
		StaticPower:   readPath.StaticPower * float64(u.ReadCircuits*nXbar),
	}
	out[arch.ClassADC] = adcs.Scale(b.Units)
	rowDec, err := periph.Decoder(n, d.CrossbarSize, true)
	if err != nil {
		return nil, err
	}
	colDec, err := periph.Decoder(n, d.CrossbarSize, false)
	if err != nil {
		return nil, err
	}
	out[arch.ClassDecoder] = periph.Parallel(rowDec.Scale(nXbar), colDec.Scale(nXbar)).Scale(b.Units)
	tree, err := periph.AdderTree(n, b.RowBlocks, d.DataBits)
	if err != nil {
		return nil, err
	}
	merge := tree.Scale(refMax(b.OutputsPerPass, 1))
	if d.WeightPolarity == 2 {
		sub, err := periph.Subtractor(n, d.DataBits)
		if err != nil {
			return nil, err
		}
		merge = merge.Plus(sub.Scale(u.ReadCircuits * b.Units))
	}
	out[arch.ClassMerge] = merge
	neuron, err := periph.Neuron(n, d.Neuron, d.DataBits)
	if err != nil {
		return nil, err
	}
	neuronCount := b.Layer.Cols
	if b.Layer.PoolK > 1 {
		neuronCount = refMax(b.Layer.Cols/(b.Layer.PoolK*b.Layer.PoolK), 1)
	}
	out[arch.ClassNeuron] = neuron.Scale(neuronCount)
	var buffers periph.Perf
	if b.Layer.OutBufLen > 0 {
		lb, err := periph.LineBuffer(n, b.Layer.OutBufLen, d.DataBits)
		if err != nil {
			return nil, err
		}
		buffers = lb.Scale(refMax(b.Layer.OutChannels, 1))
	} else {
		reg, err := periph.Register(n, d.DataBits)
		if err != nil {
			return nil, err
		}
		buffers = reg.Scale(b.Layer.Cols)
	}
	if k := b.Layer.PoolK; k > 1 {
		pool, err := periph.MaxPool(n, k, d.DataBits)
		if err != nil {
			return nil, err
		}
		pb, err := periph.LineBuffer(n, k*k, d.DataBits)
		if err != nil {
			return nil, err
		}
		buffers = buffers.Plus(pool.Scale(refMax(b.OutputsPerPass/(k*k), 1)))
		buffers = buffers.Plus(pb.Scale(refMax(b.OutputsPerPass, 1)))
	}
	out[arch.ClassBuffer] = buffers
	return out, nil
}

// refAccelerator builds the reference banks and interfaces of d.
func refAccelerator(d *arch.Design, layers []arch.LayerDims, iface [2]int) (*arch.Accelerator, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	a := &arch.Accelerator{Design: d}
	for _, l := range layers {
		b, err := refBank(d, l, a.Banks)
		if err != nil {
			return nil, err
		}
		a.Banks = append(a.Banks, b)
	}
	var err error
	if a.InIface, err = periph.IOInterface(d.CMOS, iface[0], layers[0].Rows*d.DataBits); err != nil {
		return nil, err
	}
	if a.OutIface, err = periph.IOInterface(d.CMOS, iface[1], layers[len(layers)-1].Cols*d.DataBits); err != nil {
		return nil, err
	}
	return a, nil
}

// refEvaluate is the report of a reference accelerator, with Bank.Accuracy
// run once per propagation path.
func refEvaluate(a *arch.Accelerator) (arch.Report, error) {
	var r arch.Report
	areaUM2 := a.InIface.Area + a.OutIface.Area
	staticPower := a.InIface.StaticPower + a.OutIface.StaticPower
	r.SampleLatency = a.InIface.Latency + a.OutIface.Latency
	deltaAvg, deltaWorst := 0.0, 0.0
	for _, b := range a.Banks {
		areaUM2 += b.PassPerf.Area
		staticPower += b.PassPerf.StaticPower
		r.EnergyPerSample += b.SampleEnergy
		r.SampleLatency += b.SampleLatency
		if b.PassPerf.Latency > r.PipelineCycle {
			r.PipelineCycle = b.PassPerf.Latency
		}
		k := 1 << uint(b.Design.ADCBits())
		repAvg, err := accuracy.EvalLayer(*b.Unit.Xbar, b.Layer.Rows, b.Layer.Cols, k, deltaAvg)
		if err != nil {
			return arch.Report{}, err
		}
		repWorst, err := accuracy.EvalLayer(*b.Unit.Xbar, b.Layer.Rows, b.Layer.Cols, k, deltaWorst)
		if err != nil {
			return arch.Report{}, err
		}
		deltaAvg = repAvg.AvgRate
		deltaWorst = repWorst.WorstRate
	}
	r.EnergyPerSample += a.InIface.DynamicEnergy + a.OutIface.DynamicEnergy
	r.AreaMM2 = areaUM2 * 1e-6
	dyn := 0.0
	for _, b := range a.Banks {
		dyn += b.PassPerf.DynamicEnergy / r.PipelineCycle
	}
	r.Power = dyn + staticPower
	r.ErrorWorst = deltaWorst
	r.ErrorAvg = deltaAvg
	return r, nil
}

// diffBits returns the path of the first exported value that differs
// between got and want, comparing floats by their bits, or "" when every
// exported field matches.
func diffBits(path string, got, want reflect.Value) string {
	switch got.Kind() {
	case reflect.Pointer:
		if got.IsNil() || want.IsNil() {
			if got.IsNil() != want.IsNil() {
				return path
			}
			return ""
		}
		return diffBits(path, got.Elem(), want.Elem())
	case reflect.Struct:
		for i := 0; i < got.NumField(); i++ {
			f := got.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			if d := diffBits(path+"."+f.Name, got.Field(i), want.Field(i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Slice:
		if got.Len() != want.Len() {
			return path + " (length)"
		}
		for i := 0; i < got.Len(); i++ {
			if d := diffBits(fmt.Sprintf("%s[%d]", path, i), got.Index(i), want.Index(i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Float64:
		if math.Float64bits(got.Float()) != math.Float64bits(want.Float()) {
			return fmt.Sprintf("%s: %v vs %v", path, got.Float(), want.Float())
		}
		return ""
	default:
		if got.Interface() != want.Interface() {
			return fmt.Sprintf("%s: %v vs %v", path, got.Interface(), want.Interface())
		}
		return ""
	}
}

func reportBits(r arch.Report) [7]uint64 {
	b := math.Float64bits
	return [7]uint64{b(r.AreaMM2), b(r.EnergyPerSample), b(r.SampleLatency), b(r.PipelineCycle),
		b(r.Power), b(r.ErrorWorst), b(r.ErrorAvg)}
}

type evalCase struct {
	name   string
	layers []arch.LayerDims
	design func(size, p, node int) *arch.Design
}

func evalCases(t testing.TB) []evalCase {
	vgg, err := nn.VGG16().Dims()
	if err != nil {
		t.Fatal(err)
	}
	large := []arch.LayerDims{{Rows: 2048, Cols: 1024, Passes: 1}}
	// A small CNN whose layers pool (2×2 and 3×3) and feed line buffers.
	cnn := []arch.LayerDims{
		{Rows: 27, Cols: 64, Passes: 1024, PoolK: 2, OutBufLen: 34, OutChannels: 64},
		{Rows: 576, Cols: 128, Passes: 256, PoolK: 3, OutBufLen: 18, OutChannels: 128},
		{Rows: 1152, Cols: 256, Passes: 49},
		{Rows: 256, Cols: 10, Passes: 1},
	}
	with := func(weightBits int, neuron periph.NeuronKind, edit func(d *arch.Design)) func(size, p, node int) *arch.Design {
		return func(size, p, node int) *arch.Design {
			d := tableVIDesign(size, p, node, weightBits, neuron)
			if edit != nil {
				edit(d)
			}
			return d
		}
	}
	return []evalCase{
		// Table VI: VGG-16, 8-bit signed weights on crossbar pairs.
		{"vgg16", vgg, with(8, periph.NeuronReLU, nil)},
		// Tables IV and V: the large bank, 4-bit weights.
		{"largebank", large, with(4, periph.NeuronSigmoid, nil)},
		{"vgg16/pipelined-sar-paired-columns", vgg, with(8, periph.NeuronReLU, func(d *arch.Design) {
			d.InnerPipeline = true
			d.ADC = periph.ADCSAR
			d.TwoCrossbarSigned = false
		})},
		{"largebank/pipelined-flash-unsigned", large, with(4, periph.NeuronIntegrateFire, func(d *arch.Design) {
			d.InnerPipeline = true
			d.ADC = periph.ADCFlash
			d.WeightPolarity = 1
			d.TwoCrossbarSigned = false
		})},
		// Table VII: PRIME-style 4-bit cells, 6-bit data, 65 nm logic.
		{"prime", []arch.LayerDims{{Rows: 256, Cols: 256, Passes: 1}}, with(8, periph.NeuronSigmoid, func(d *arch.Design) {
			d.Dev.LevelBits = 4
			d.DataBits = 6
			d.CMOS = tech.MustNode(65)
		})},
		{"cnn/sar-pipelined", cnn, with(8, periph.NeuronReLU, func(d *arch.Design) {
			d.ADC = periph.ADCSAR
			d.InnerPipeline = true
		})},
		{"cnn/flash", cnn, with(4, periph.NeuronIntegrateFire, func(d *arch.Design) {
			d.ADC = periph.ADCFlash
		})},
	}
}

// parallelisms is 0 (fully parallel) and every power of two up to size,
// plus size itself.
func parallelisms(size int) []int {
	ps := []int{0}
	for p := 1; p < size; p *= 2 {
		ps = append(ps, p)
	}
	return append(ps, size)
}

// TestEvaluateMatchesReference pins the planned accelerator to the
// reference assembly: every Report field, every exported Bank and Unit field
// and every breakdown class by bits, for each parallelism built from one
// plan per (case, crossbar size, wire node) and through NewAccelerator.
func TestEvaluateMatchesReference(t *testing.T) {
	checked := 0
	for _, c := range evalCases(t) {
		for _, size := range []int{8, 24, 64, 128, 200, 256, 512, 1024} {
			for _, node := range []int{18, 45, 90} {
				pl, planErr := arch.NewPlan(c.design(size, -1, node), c.layers, [2]int{128, 128})
				for _, p := range parallelisms(size) {
					name := fmt.Sprintf("%s/%d/p%d/%dnm", c.name, size, p, node)
					d := c.design(size, p, node)
					ref, refErr := refAccelerator(d, c.layers, [2]int{128, 128})
					if (refErr != nil) != (planErr != nil) {
						t.Fatalf("%s: reference error %v, plan error %v", name, refErr, planErr)
					}
					if refErr != nil {
						continue // a weight does not fit the crossbar
					}
					want, err := refEvaluate(ref)
					if err != nil {
						t.Fatalf("%s: reference: %v", name, err)
					}
					planned, err := pl.At(p)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					built, err := arch.NewAccelerator(d, c.layers, [2]int{128, 128})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					for _, a := range []*arch.Accelerator{planned, built} {
						got, err := a.EvaluateContext(context.Background())
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if reportBits(got) != reportBits(want) {
							t.Fatalf("%s: report %+v, reference %+v", name, got, want)
						}
						if diff := diffBits("accelerator", reflect.ValueOf(a), reflect.ValueOf(ref)); diff != "" {
							t.Fatalf("%s: %s", name, diff)
						}
						for i, b := range a.Banks {
							wantBD, err := refBreakdown(ref.Banks[i])
							if err != nil {
								t.Fatal(err)
							}
							gotBD := b.Breakdown()
							for _, class := range arch.Classes() {
								if diff := diffBits(string(class), reflect.ValueOf(gotBD[class]), reflect.ValueOf(wantBD[class])); diff != "" {
									t.Fatalf("%s: bank %d breakdown %s", name, i, diff)
								}
							}
						}
					}
					checked++
				}
			}
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d buildable designs checked", checked)
	}
}

// planSpec is one design and layer stack to plan.
type planSpec struct {
	d      *arch.Design
	layers []arch.LayerDims
}

// planSpecs is every evaluation case at crossbar sizes 2, 8, 64, 256 and
// 1024 at 45 nm, plus VGG-16 with an empty middle layer. Some of them fail
// to plan partway: the size-2 crossbar cannot hold one weight of the
// paired-column case, and the empty layer fails at bank 8.
func planSpecs(t testing.TB) []planSpec {
	var specs []planSpec
	cases := evalCases(t)
	for _, c := range cases {
		for _, size := range []int{2, 8, 64, 256, 1024} {
			specs = append(specs, planSpec{c.design(size, -1, 45), c.layers})
		}
	}
	broken := append([]arch.LayerDims(nil), cases[0].layers...)
	broken[8].Rows = 0
	return append(specs, planSpec{cases[0].design(128, -1, 45), broken})
}

// reusePlans builds one plan per planSpecs entry, skipping the designs
// that fail to plan.
func reusePlans(t testing.TB) []*arch.Plan {
	var plans []*arch.Plan
	for _, sp := range planSpecs(t) {
		pl, err := arch.NewPlan(sp.d, sp.layers, [2]int{128, 128})
		if err == nil {
			plans = append(plans, pl)
		}
	}
	return plans
}

// sameAccelerator fails the test unless got equals want by bits: the
// report, every exported Bank and Unit field and every breakdown class.
func sameAccelerator(t *testing.T, name string, got, want *arch.Accelerator) {
	t.Helper()
	gotR, err := got.EvaluateContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantR, err := want.EvaluateContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if reportBits(gotR) != reportBits(wantR) {
		t.Fatalf("%s: report %+v, fresh %+v", name, gotR, wantR)
	}
	if diff := diffBits("accelerator", reflect.ValueOf(got), reflect.ValueOf(want)); diff != "" {
		t.Fatalf("%s: %s", name, diff)
	}
	for i, b := range got.Banks {
		gotBD, wantBD := b.Breakdown(), want.Banks[i].Breakdown()
		for _, class := range arch.Classes() {
			if diff := diffBits(string(class), reflect.ValueOf(gotBD[class]), reflect.ValueOf(wantBD[class])); diff != "" {
				t.Fatalf("%s: bank %d breakdown %s", name, i, diff)
			}
		}
	}
}

// TestIntoReusesStorage walks one accelerator through a shuffled sequence
// of (plan, parallelism) pairs — VGG-16, the large bank and the other cases,
// pipelined and not, so its unit and bank storage grows and shrinks — and
// pins every fill to a fresh At by bits. An out-of-range parallelism in the
// sequence must fail and leave the next fill whole.
func TestIntoReusesStorage(t *testing.T) {
	type pair struct {
		pl *arch.Plan
		p  int
	}
	var pairs []pair
	plans := reusePlans(t)
	pipelined := 0
	for _, pl := range plans {
		if pl.Design.InnerPipeline {
			pipelined++
		}
		for _, p := range append(parallelisms(pl.Design.CrossbarSize), -1) {
			pairs = append(pairs, pair{pl, p})
		}
	}
	if pipelined == 0 || pipelined == len(plans) {
		t.Fatal("want plans with the inner pipeline both on and off")
	}
	rng := rand.New(rand.NewSource(20))
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	var a arch.Accelerator
	for k, pr := range pairs {
		name := fmt.Sprintf("pair %d: size %d p %d", k, pr.pl.Design.CrossbarSize, pr.p)
		want, wantErr := pr.pl.At(pr.p)
		err := pr.pl.Into(&a, pr.p)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%s: Into error %v, At error %v", name, err, wantErr)
		}
		if err == nil {
			sameAccelerator(t, name, &a, want)
		}
	}
}

// TestResetReusesStorage walks one plan and one accelerator through a
// shuffled sequence of designs — VGG-16, the large bank and the other
// cases, pipelined and not, so the plan's bank storage grows and shrinks —
// including designs whose rebuild fails partway, at a bank whose weights do
// not fit the crossbar. Each rebuild must fail as NewPlan does, and after
// each successful one, filling the accelerator at several parallelisms must
// equal a fresh NewPlan plus At by bits.
func TestResetReusesStorage(t *testing.T) {
	var seq []planSpec
	for k := 0; k < 3; k++ {
		seq = append(seq, planSpecs(t)...)
	}
	rng := rand.New(rand.NewSource(25))
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	iface := [2]int{128, 128}
	var pl arch.Plan
	var a arch.Accelerator
	failed := 0
	for k, sp := range seq {
		size := sp.d.CrossbarSize
		err := pl.Reset(sp.d, sp.layers, iface)
		fresh, wantErr := arch.NewPlan(sp.d, sp.layers, iface)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("design %d (size %d): Reset error %v, NewPlan error %v", k, size, err, wantErr)
		}
		if err != nil {
			failed++
			continue
		}
		for _, p := range []int{0, 1, min(4, size), size} {
			name := fmt.Sprintf("design %d: %d layers, size %d p %d", k, len(sp.layers), size, p)
			if err := pl.Into(&a, p); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := fresh.At(p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sameAccelerator(t, name, &a, want)
		}
	}
	if failed == 0 || failed == len(seq) {
		t.Fatalf("%d of %d rebuilds failed, want some of each", failed, len(seq))
	}
}

// TestIntoAllocatesNothing: once one plan and one accelerator have grown to
// the largest design, rebuilding the plan for every design, then filling
// and evaluating the accelerator at several parallelisms, allocates
// nothing.
func TestIntoAllocatesNothing(t *testing.T) {
	var specs []planSpec
	for _, sp := range planSpecs(t) {
		if _, err := arch.NewPlan(sp.d, sp.layers, [2]int{128, 128}); err == nil {
			specs = append(specs, sp)
		}
	}
	var pl arch.Plan
	var a arch.Accelerator
	ctx := context.Background()
	run := func() {
		for _, sp := range specs {
			if err := pl.Reset(sp.d, sp.layers, [2]int{128, 128}); err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{0, 1, min(4, sp.d.CrossbarSize)} {
				if err := pl.Into(&a, p); err != nil {
					t.Fatal(err)
				}
				if _, err := a.EvaluateContext(ctx); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Fatalf("Reset, Into and EvaluateContext on grown storage: %v allocs per sweep of %d designs, want 0", allocs, len(specs))
	}
}

// TestPlanLeavesParallelismToAt: a plan validates its design but not the
// parallelism, so one bad grid point cannot poison the others built from it.
func TestPlanLeavesParallelismToAt(t *testing.T) {
	c := evalCases(t)[1]
	pl, err := arch.NewPlan(c.design(64, -3, 45), c.layers, [2]int{128, 128})
	if err != nil {
		t.Fatalf("plan rejected a design for its parallelism: %v", err)
	}
	for _, p := range []int{-1, 65} {
		if _, err := pl.At(p); err == nil {
			t.Errorf("At(%d) accepted a parallelism outside [0,64]", p)
		}
	}
	a, err := pl.At(16)
	if err != nil {
		t.Fatal(err)
	}
	if a.Design.Parallelism != 16 || pl.Design.Parallelism != -3 {
		t.Fatalf("At(16) built parallelism %d and left the plan's at %d", a.Design.Parallelism, pl.Design.Parallelism)
	}
	bad := c.design(64, 0, 45)
	bad.WeightPolarity = 3
	if _, err := arch.NewPlan(bad, c.layers, [2]int{128, 128}); err == nil {
		t.Error("plan accepted an invalid weight polarity")
	}
	if _, err := arch.NewPlan(c.design(64, 0, 45), nil, [2]int{128, 128}); err == nil {
		t.Error("plan accepted an empty layer stack")
	}
}

// TestAcceleratorSharesUnits: banks with one block shape share one unit,
// so VGG-16 builds a handful of units, not one per layer.
func TestAcceleratorSharesUnits(t *testing.T) {
	vgg := evalCases(t)[0]
	a, err := arch.NewAccelerator(vgg.design(128, 0, 45), vgg.layers, [2]int{128, 128})
	if err != nil {
		t.Fatal(err)
	}
	units := map[*arch.Unit][2]int{}
	shapes := map[[2]int]bool{}
	for _, b := range a.Banks {
		units[b.Unit] = [2]int{b.Unit.Rows, b.Unit.Cols}
		shapes[[2]int{b.Unit.Rows, b.Unit.Cols}] = true
	}
	if len(units) != len(shapes) || len(units) >= len(a.Banks) {
		t.Fatalf("%d banks built %d units for %d block shapes, want one unit per shape", len(a.Banks), len(units), len(shapes))
	}
}

// BenchmarkEvaluate times one DSE candidate, VGG-16 on the Table VI base
// design: NewAccelerator plus EvaluateContext (vgg16/<size>), and its two
// halves as a sweep runs them, Plan.Reset on one reused plan (plan/...) and
// Plan.Into plus EvaluateContext on one reused accelerator (at-p/...), both
// of which allocate nothing.
func BenchmarkEvaluate(b *testing.B) {
	vgg := evalCases(b)[0]
	iface := [2]int{128, 128}
	for _, size := range []int{64, 256, 1024} {
		d := vgg.design(size, 0, 45)
		b.Run(fmt.Sprintf("vgg16/%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a, err := arch.NewAccelerator(d, vgg.layers, iface)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := a.EvaluateContext(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("plan/vgg16/%d", size), func(b *testing.B) {
			var pl arch.Plan
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := pl.Reset(d, vgg.layers, iface); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("at-p/vgg16/%d", size), func(b *testing.B) {
			pl, err := arch.NewPlan(d, vgg.layers, iface)
			if err != nil {
				b.Fatal(err)
			}
			var a arch.Accelerator
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := pl.Into(&a, d.Parallelism); err != nil {
					b.Fatal(err)
				}
				if _, err := a.EvaluateContext(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
