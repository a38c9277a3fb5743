package arch

import (
	"fmt"

	"mnsim/internal/accuracy"
	"mnsim/internal/crossbar"
	"mnsim/internal/periph"
)

// Plan is the part of an accelerator that its read parallelism cannot
// change: the layer tiling, every peripheral module whose size does not
// scale with the read circuits, the crossbar figures, the I/O interfaces and
// the network's error chain (Eq. 12–15, which depend on the crossbar, the
// layer shapes and the ADC precision only). A design-space sweep rebuilds
// one plan in place (Reset) per (wire node, crossbar size) and fills each
// parallelism's accelerator from it with Into, into storage it reuses; At,
// NewAccelerator and NewBank run through the same two steps, so
// every module formula lives in one place. Whatever was filled from a plan
// points into it and is valid until the plan's next rebuild.
type Plan struct {
	// Design is the planned design; it must not change while the plan is
	// in use. Its Parallelism is not validated and not used: At and Into
	// supply the parallelism.
	Design *Design

	mods   modules
	shapes [][2]int // distinct unit block shapes (rows, cols)
	banks  []bankPlan

	inIface, outIface periph.Perf
	errWorst, errAvg  float64
}

// modules are the peripheral modules and crossbar figures shared by every
// unit and bank of one design.
type modules struct {
	nXbar   int // crossbars per unit
	adcBits int
	xbar    crossbar.Params

	dac            periph.Perf // one row's input DAC
	rowDec, colDec periph.Perf
	decoders       periph.Perf // the row and column decoders of every crossbar of a unit
	adc            periph.Perf
	sub            periph.Perf // signed-weight subtractor (WeightPolarity 2)
	slices         periph.Perf // bit-slice shift-and-add (BitSlices > 1)
	neuron         periph.Perf
	reg            periph.Perf // one DataBits register

	xbarArea   float64 // crossbar area of a unit: Area·AreaCoefficient·nXbar
	xbarSettle float64 // crossbar settle time
	xbarPower  float64 // analog compute power of a unit's crossbars: ComputePower·nXbar
	// readOp and writeOp hold the latency and energy of one-cell memory
	// operations; their area and static power are the unit's.
	readOp, writeOp periph.Perf
}

// bankPlan is the parallelism-independent part of one computation bank.
type bankPlan struct {
	mods                 *modules // the design's shared modules
	layer                LayerDims
	rowBlocks, colBlocks int
	shape                int // index into Plan.shapes

	tree          periph.Perf // adder tree over rowBlocks partial sums
	pool, poolBuf periph.Perf // max pooling and its line buffer (PoolK > 1)
	neuronCount   int         // one neuron per output neuron
	outBuf        periph.Perf
}

// NewPlan builds the parallelism-independent part of the accelerator for
// the given layer stack: Reset on a new plan.
func NewPlan(d *Design, layers []LayerDims, interfaceLines [2]int) (*Plan, error) {
	pl := new(Plan)
	if err := pl.Reset(d, layers, interfaceLines); err != nil {
		return nil, err
	}
	return pl, nil
}

// Reset rebuilds pl as the plan of d for the given layer stack. It validates
// everything in d but its Parallelism. It overwrites every field and reuses
// pl's bank and block-shape storage, growing it only when a plan needs more,
// so a sweep that rebuilds one plan per (wire node, crossbar size) allocates
// nothing once the plan has grown. Every accelerator filled from pl, and
// every Bank, Unit and Breakdown reached through it, is valid only until the
// next Reset; on error pl is left invalid.
func (pl *Plan) Reset(d *Design, layers []LayerDims, interfaceLines [2]int) error {
	if len(layers) == 0 {
		return fmt.Errorf("arch: accelerator needs at least one layer")
	}
	if err := d.validatePlan(); err != nil {
		return err
	}
	if err := pl.reset(d, layers); err != nil {
		return err
	}
	inBits := layers[0].Rows * d.DataBits
	outBits := layers[len(layers)-1].Cols * d.DataBits
	var err error
	if pl.inIface, err = periph.IOInterface(d.CMOS, interfaceLines[0], inBits); err != nil {
		return err
	}
	if pl.outIface, err = periph.IOInterface(d.CMOS, interfaceLines[1], outBits); err != nil {
		return err
	}
	return pl.errorChain()
}

// reset rebuilds the modules and the banks of pl on a validated design,
// leaving the I/O interfaces and the error chain zero.
func (pl *Plan) reset(d *Design, layers []LayerDims) error {
	shapes, banks := pl.shapes, pl.banks
	if cap(banks) < len(layers) {
		// A plan has at most one block shape per bank.
		shapes, banks = make([][2]int, 0, len(layers)), make([]bankPlan, len(layers))
	}
	*pl = Plan{Design: d, shapes: shapes[:0], banks: banks[:len(layers)]}
	if err := pl.mods.init(d); err != nil {
		return err
	}
	for i, l := range layers {
		if err := pl.addBank(&pl.banks[i], l); err != nil {
			return fmt.Errorf("arch: bank %d: %w", i, err)
		}
	}
	return nil
}

// At builds the accelerator of the plan's design at read parallelism p in
// new storage.
func (pl *Plan) At(p int) (*Accelerator, error) {
	a := new(Accelerator)
	if err := pl.Into(a, p); err != nil {
		return nil, err
	}
	return a, nil
}

// Into rebuilds a as the accelerator of the plan's design at read
// parallelism p. It reuses a's design copy, units and banks, growing them
// only when the plan needs more, so a sweep that fills one accelerator per
// candidate allocates nothing once the accelerator has grown. Everything a
// filled accelerator holds, and every Bank, Unit and Breakdown reached
// through it, is valid only until the next Into on a; on error a is left
// invalid.
//
//lint:hotpath
func (pl *Plan) Into(a *Accelerator, p int) error {
	a.design = *pl.Design
	a.design.Parallelism = p
	if err := a.design.validateParallelism(); err != nil {
		return err
	}
	return pl.fill(a, &a.design)
}

// fill builds into a the accelerator of design d, which must equal the
// plan's design apart from its Parallelism: one unit per block shape, shared
// by the banks of that shape, then the banks.
//
//lint:hotpath
func (pl *Plan) fill(a *Accelerator, d *Design) error {
	if cap(a.units) < len(pl.shapes) {
		//lint:ignore noalloc grows only when a plan needs more than the accelerator holds; later fills reuse it
		a.units = make([]Unit, len(pl.shapes))
	}
	a.units = a.units[:len(pl.shapes)]
	for i, s := range pl.shapes {
		if err := a.units[i].build(d, &pl.mods, s[0], s[1]); err != nil {
			return err
		}
	}
	if cap(a.banks) < len(pl.banks) {
		//lint:ignore noalloc grows only when a plan needs more than the accelerator holds; later fills reuse it
		a.banks = make([]Bank, len(pl.banks))
	}
	a.banks = a.banks[:len(pl.banks)]
	if cap(a.Banks) < len(pl.banks) {
		//lint:ignore noalloc grows only when a plan needs more than the accelerator holds; later fills reuse it
		a.Banks = make([]*Bank, len(pl.banks))
	}
	a.Banks = a.Banks[:len(pl.banks)]
	a.Design = d
	a.InIface, a.OutIface = pl.inIface, pl.outIface
	a.errWorst, a.errAvg = pl.errWorst, pl.errAvg
	for i := range pl.banks {
		bp := &pl.banks[i]
		a.banks[i].build(d, bp, &a.units[bp.shape])
		a.Banks[i] = &a.banks[i]
	}
	return nil
}

// init builds the design's shared modules into a zero m.
func (m *modules) init(d *Design) error {
	n := d.CMOS
	m.nXbar = d.CrossbarsPerUnit()
	m.adcBits = d.ADCBits()
	m.xbar = d.Crossbar(d.CrossbarSize, d.CrossbarSize)
	var err error

	// Input peripheral circuit: one DAC per active row (Section III.C.3),
	// shared by both crossbars of a signed pair.
	if m.dac, err = periph.DAC(n, d.DataBits); err != nil {
		return err
	}
	// Decoders: each crossbar needs a row and a column decoder for
	// READ/WRITE; the row decoder is the computation-oriented design of
	// Fig. 4(b) so COMPUTE can select all rows at once.
	if m.rowDec, err = periph.Decoder(n, d.CrossbarSize, true); err != nil {
		return err
	}
	if m.colDec, err = periph.Decoder(n, d.CrossbarSize, false); err != nil {
		return err
	}
	m.decoders = periph.Parallel(m.rowDec.Scale(m.nXbar), m.colDec.Scale(m.nXbar))
	// Read circuits: p ADCs per crossbar behind column MUXes sequenced by a
	// counter (Section III.C.4).
	if m.adc, err = periph.ADC(n, d.ADC, m.adcBits); err != nil {
		return err
	}
	// Signed-weight merging.
	if d.WeightPolarity == 2 {
		if m.sub, err = periph.Subtractor(n, d.DataBits); err != nil {
			return err
		}
	}
	// Bit-slice merging: shift-and-add of BitSlices() slices per weight.
	if s := d.BitSlices(); s > 1 {
		sh, err := periph.Shifter(n, d.DataBits+s, d.Dev.LevelBits*(s-1))
		if err != nil {
			return err
		}
		tree, err := periph.AdderTree(n, s, d.DataBits)
		if err != nil {
			return err
		}
		m.slices = periph.Sum(sh, tree)
	}
	if m.neuron, err = periph.Neuron(n, d.Neuron, d.DataBits); err != nil {
		return err
	}
	if m.reg, err = periph.Register(n, d.DataBits); err != nil {
		return err
	}

	// Crossbar arrays.
	m.xbarArea = m.xbar.Area() * d.AreaCoefficient * float64(m.nXbar)
	m.xbarSettle = m.xbar.Latency()
	m.xbarPower = m.xbar.ComputePower() * float64(m.nXbar)

	// Memory operations exercise one cell through the decoders.
	m.readOp = periph.Perf{
		Latency:       m.rowDec.Latency + m.colDec.Latency + m.xbarSettle + m.adc.Latency,
		DynamicEnergy: m.rowDec.DynamicEnergy + m.colDec.DynamicEnergy + m.xbar.ReadPower()/float64(m.xbar.Cols)*m.xbarSettle + m.adc.DynamicEnergy,
	}
	m.writeOp = periph.Perf{
		Latency:       m.rowDec.Latency + m.colDec.Latency + d.Dev.WriteLatency,
		DynamicEnergy: m.rowDec.DynamicEnergy + m.colDec.DynamicEnergy + d.Dev.WriteEnergy(),
	}
	return nil
}

// addBank tiles one layer onto computation units and builds the bank's
// merge and peripheral modules, overwriting every field of bp.
func (pl *Plan) addBank(bp *bankPlan, layer LayerDims) error {
	*bp = bankPlan{mods: &pl.mods, layer: layer}
	if err := layer.Validate(); err != nil {
		return err
	}
	d := pl.Design
	n := d.CMOS
	s := d.CrossbarSize
	logicalCols := s / d.CellsPerWeight()
	if logicalCols < 1 {
		return fmt.Errorf("arch: crossbar size %d cannot hold one %d-bit weight (%d cells)", s, d.WeightBits, d.CellsPerWeight())
	}
	bp.rowBlocks = ceilDiv(layer.Rows, s)
	bp.colBlocks = ceilDiv(layer.Cols, logicalCols)

	// A unit depends only on the design and its block shape, so banks with
	// the same block shape share one.
	shape := [2]int{minInt(layer.Rows, s), minInt(layer.Cols, logicalCols)}
	bp.shape = len(pl.shapes)
	for i, o := range pl.shapes {
		if o == shape {
			bp.shape = i
			break
		}
	}
	if bp.shape == len(pl.shapes) {
		pl.shapes = append(pl.shapes, shape)
	}

	var err error
	// Adder tree: each finished output merges RowBlocks partial sums (Eq. 5).
	if bp.tree, err = periph.AdderTree(n, bp.rowBlocks, d.DataBits); err != nil {
		return err
	}
	// Pooling module and pooling line buffer (CNN only).
	if layer.PoolK > 1 {
		if bp.pool, err = periph.MaxPool(n, layer.PoolK, d.DataBits); err != nil {
			return err
		}
		if bp.poolBuf, err = periph.LineBuffer(n, layer.PoolK*layer.PoolK, d.DataBits); err != nil {
			return err
		}
	}
	// Neuron modules: one per output neuron, each wired to its output
	// register (Section III.B.5) — the count does not shrink with the read
	// parallelism, which is what limits the area gain of reducing read
	// circuits at large crossbar sizes (Fig. 7). Pooling (a monotone max)
	// runs before the neurons to cut the neuron operation count
	// (Section III.B.4).
	bp.neuronCount = layer.Cols
	if layer.PoolK > 1 {
		bp.neuronCount = maxInt(layer.Cols/(layer.PoolK*layer.PoolK), 1)
	}
	// Output buffer: plain registers for fully-connected layers, the line
	// buffers of Eq. 6 for cascaded Conv layers.
	if layer.OutBufLen > 0 {
		lb, err := periph.LineBuffer(n, layer.OutBufLen, d.DataBits)
		if err != nil {
			return err
		}
		bp.outBuf = lb.Scale(maxInt(layer.OutChannels, 1))
	} else {
		bp.outBuf = pl.mods.reg.Scale(layer.Cols)
	}
	return nil
}

// errorChain propagates the layer-by-layer error rates through the banks
// (Eq. 12–15). One layer-error evaluation per bank feeds both propagation
// paths. It depends only on the bank's clipped crossbar block, which
// consecutive layers often share, so an unchanged block reuses the previous
// bank's Eval.
func (pl *Plan) errorChain() error {
	xbar := pl.mods.xbar
	k := 1 << uint(pl.mods.adcBits)
	var block crossbar.Params
	var blockErr accuracy.VoltageError
	deltaAvg, deltaWorst := 0.0, 0.0
	for i := range pl.banks {
		l := &pl.banks[i].layer
		if pb := accuracy.BlockParams(xbar, l.Rows, l.Cols); i == 0 || pb != block {
			e, err := accuracy.Eval(pb)
			if err != nil {
				return err
			}
			block, blockErr = pb, e
		}
		merged := accuracy.Merged(blockErr, accuracy.RowBlocks(xbar, l.Rows))
		deltaAvg = accuracy.AvgErrorRate(accuracy.Propagate(deltaAvg, merged.Avg), k)
		deltaWorst = accuracy.MaxErrorRate(accuracy.Propagate(deltaWorst, merged.Worst), k)
	}
	pl.errWorst, pl.errAvg = deltaWorst, deltaAvg
	return nil
}
