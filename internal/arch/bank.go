package arch

import (
	"mnsim/internal/accuracy"
	"mnsim/internal/periph"
)

// Bank is one Computation Bank (Section III.B, Fig. 1c): the computation
// units tiling one neuromorphic layer's weight matrix (grouped into synapse
// sub-banks sharing inputs), the adder tree merging the row blocks, and the
// peripheral chain (pooling module and buffer for CNN, non-linear neuron
// module, output buffer).
type Bank struct {
	Design *Design
	Layer  LayerDims

	// RowBlocks × ColBlocks units tile the weight matrix; units in the same
	// column of blocks share inputs and form a synapse sub-bank.
	RowBlocks, ColBlocks int
	Units                int
	Unit                 *Unit

	// OutputsPerPass is the number of layer outputs finished per compute
	// pass (bounded by the read parallelism).
	OutputsPerPass int

	// PassPerf is the performance of one compute pass through the whole
	// bank chain; Area and StaticPower cover the entire bank. With the
	// inner-layer pipeline enabled, Latency is the pipeline cycle (the
	// slowest stage) rather than the full chain traversal.
	PassPerf periph.Perf
	// Stages is the depth of the bank's merge chain (1 when the chain runs
	// combinationally in one pass).
	Stages int
	// SampleEnergy and SampleLatency cover one full input sample
	// (Layer.Passes compute passes, plus pipeline fill when enabled).
	SampleEnergy  float64
	SampleLatency float64

	plan *bankPlan // the modules the bank was built from, for Breakdown
}

// NewBank tiles one layer onto computation units and assembles the merge
// and peripheral chain.
func NewBank(d *Design, layer LayerDims) (*Bank, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	pl := new(Plan)
	if err := pl.reset(d, []LayerDims{layer}); err != nil {
		return nil, err
	}
	a := new(Accelerator)
	if err := pl.fill(a, d); err != nil {
		return nil, err
	}
	return a.Banks[0], nil
}

// build assembles the bank of design d from its plan and its unit, doing
// the arithmetic that depends on the read parallelism. It overwrites every
// field, so a bank reused across builds keeps nothing of the previous one.
// The fields are assigned one by one: a composite literal would be built in
// a temporary and block-copied over the bank on every build.
//
//lint:hotpath
func (b *Bank) build(d *Design, bp *bankPlan, u *Unit) {
	m := bp.mods
	layer := bp.layer
	b.Design = d
	b.Layer = layer
	b.RowBlocks, b.ColBlocks = bp.rowBlocks, bp.colBlocks
	b.Units = bp.rowBlocks * bp.colBlocks
	b.Unit = u
	b.plan = bp
	b.OutputsPerPass = minInt(layer.Cols, b.ColBlocks*u.ReadCircuits)

	// OutputsPerPass adder trees operate in parallel per read cycle.
	trees := bp.tree.Scale(maxInt(b.OutputsPerPass, 1))
	var pool, poolBuf periph.Perf
	if layer.PoolK > 1 {
		pool = bp.pool.Scale(maxInt(b.OutputsPerPass/(layer.PoolK*layer.PoolK), 1))
		poolBuf = bp.poolBuf.Scale(maxInt(b.OutputsPerPass, 1))
	}
	// Per pass only the finished outputs fire their neurons.
	neurons := m.neuron.Scale(bp.neuronCount)
	neurons.DynamicEnergy = m.neuron.DynamicEnergy * float64(maxInt(b.OutputsPerPass, 1))
	outBuf := bp.outBuf

	units := u.Compute.Scale(b.Units)
	b.PassPerf = periph.Perf{
		Area:        units.Area + trees.Area + pool.Area + poolBuf.Area + neurons.Area + outBuf.Area,
		StaticPower: units.StaticPower + trees.StaticPower + pool.StaticPower + poolBuf.StaticPower + neurons.StaticPower + outBuf.StaticPower,
		DynamicEnergy: units.DynamicEnergy + trees.DynamicEnergy +
			pool.DynamicEnergy + poolBuf.DynamicEnergy +
			neurons.DynamicEnergy + outBuf.DynamicEnergy,
	}
	if d.InnerPipeline {
		// The ISAAC-style inner-layer pipeline of Section VIII (future
		// work): the unit's sequential read passes stream down a registered
		// merge chain instead of waiting for the full matrix-vector product.
		// Stage set: front (decode+DAC+settle), one read pass, unit merge,
		// adder tree, [pooling], neuron, output buffer.
		reg := m.reg
		// The pooling stage takes the last slot and counts only with
		// pooling, so the stage set is a fixed array, not an appended slice
		// that would allocate.
		stageLat := [...]float64{u.FrontLatency, u.ReadPassLatency, u.MergeLatency,
			bp.tree.Latency, m.neuron.Latency, outBuf.Latency, pool.Latency}
		b.Stages = len(stageLat) - 1
		if layer.PoolK > 1 {
			b.Stages++
		}
		bound := reg.Scale(maxInt(b.OutputsPerPass, 1) * (b.Stages - 1))
		b.PassPerf.Area += bound.Area
		b.PassPerf.StaticPower += bound.StaticPower
		b.PassPerf.DynamicEnergy += bound.DynamicEnergy
		cycle := reg.Latency
		for _, l := range stageLat[:b.Stages] {
			if l+reg.Latency > cycle {
				cycle = l + reg.Latency
			}
		}
		// One pass issues u.Cycles read-pass stages back to back; the pass
		// initiation interval (the accelerator-level pipeline cycle) is
		// u.Cycles pipeline cycles, and a sample drains after the fill.
		b.PassPerf.Latency = cycle * float64(u.Cycles)
		b.SampleLatency = cycle * (float64(layer.Passes*u.Cycles) + float64(b.Stages-1))
	} else {
		// One pass: all units compute concurrently, then the merge chain
		// runs combinationally.
		b.Stages = 1
		b.PassPerf.Latency = u.Compute.Latency + bp.tree.Latency + pool.Latency +
			m.neuron.Latency + outBuf.Latency
		b.SampleLatency = b.PassPerf.Latency * float64(layer.Passes)
	}
	b.SampleEnergy = b.PassPerf.DynamicEnergy * float64(layer.Passes)
}

// Accuracy evaluates the bank's crossbar computing error with the
// behaviour-level accuracy model: the merged worst/average voltage error
// rates of the layer's tiled crossbars, before quantization.
func (b *Bank) Accuracy(inDelta float64) (accuracy.LayerReport, error) {
	k := 1 << uint(b.Design.ADCBits())
	return accuracy.EvalLayer(*b.Unit.Xbar, b.Layer.Rows, b.Layer.Cols, k, inDelta)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
