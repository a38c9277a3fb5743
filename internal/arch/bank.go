package arch

import (
	"fmt"

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
}

// NewBank tiles one layer onto computation units and assembles the merge
// and peripheral chain.
func NewBank(d *Design, layer LayerDims) (*Bank, error) {
	return newBank(d, layer, nil)
}

// newBank is NewBank sharing the unit of any bank in built whose weight
// block has the same shape: a unit depends only on the design and its
// block shape, and NewAccelerator builds every bank on one design.
func newBank(d *Design, layer LayerDims, built []*Bank) (*Bank, error) {
	if err := layer.Validate(); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	s := d.CrossbarSize
	logicalCols := s / d.CellsPerWeight()
	if logicalCols < 1 {
		return nil, fmt.Errorf("arch: crossbar size %d cannot hold one %d-bit weight (%d cells)", s, d.WeightBits, d.CellsPerWeight())
	}
	b := &Bank{Design: d, Layer: layer}
	b.RowBlocks = ceilDiv(layer.Rows, s)
	b.ColBlocks = ceilDiv(layer.Cols, logicalCols)
	b.Units = b.RowBlocks * b.ColBlocks

	blockRows := minInt(layer.Rows, s)
	blockCols := minInt(layer.Cols, logicalCols)
	var u *Unit
	for _, o := range built {
		if o.Design == d && o.Unit.Rows == blockRows && o.Unit.Cols == blockCols {
			u = o.Unit
			break
		}
	}
	if u == nil {
		var err error
		if u, err = NewUnit(d, blockRows, blockCols); err != nil {
			return nil, err
		}
	}
	b.Unit = u
	b.OutputsPerPass = minInt(layer.Cols, b.ColBlocks*u.ReadCircuits)

	n := d.CMOS

	// Adder tree: each finished output merges RowBlocks partial sums
	// (Eq. 5); OutputsPerPass trees operate in parallel per read cycle.
	tree, err := periph.AdderTree(n, b.RowBlocks, d.DataBits)
	if err != nil {
		return nil, err
	}
	trees := tree.Scale(maxInt(b.OutputsPerPass, 1))

	// Pooling module and pooling line buffer (CNN only).
	var pool, poolBuf periph.Perf
	if layer.PoolK > 1 {
		pool, err = periph.MaxPool(n, layer.PoolK, d.DataBits)
		if err != nil {
			return nil, err
		}
		pool = pool.Scale(maxInt(b.OutputsPerPass/(layer.PoolK*layer.PoolK), 1))
		poolBuf, err = periph.LineBuffer(n, layer.PoolK*layer.PoolK, d.DataBits)
		if err != nil {
			return nil, err
		}
		poolBuf = poolBuf.Scale(maxInt(b.OutputsPerPass, 1))
	}

	// Neuron modules: one per output neuron, each wired to its output
	// register (Section III.B.5) — the count does not shrink with the read
	// parallelism, which is what limits the area gain of reducing read
	// circuits at large crossbar sizes (Fig. 7). Pooling (a monotone max)
	// runs before the neurons to cut the neuron operation count
	// (Section III.B.4).
	neuron, err := periph.Neuron(n, d.Neuron, d.DataBits)
	if err != nil {
		return nil, err
	}
	neuronCount := layer.Cols
	if layer.PoolK > 1 {
		neuronCount = maxInt(layer.Cols/(layer.PoolK*layer.PoolK), 1)
	}
	neurons := neuron.Scale(neuronCount)
	// Per pass only the finished outputs fire their neurons.
	neurons.DynamicEnergy = neuron.DynamicEnergy * float64(maxInt(b.OutputsPerPass, 1))

	// Output buffer: plain registers for fully-connected layers, the line
	// buffers of Eq. 6 for cascaded Conv layers.
	var outBuf periph.Perf
	if layer.OutBufLen > 0 {
		lb, err := periph.LineBuffer(n, layer.OutBufLen, d.DataBits)
		if err != nil {
			return nil, err
		}
		outBuf = lb.Scale(maxInt(layer.OutChannels, 1))
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
		// The ISAAC-style inner-layer pipeline of Section VIII (future
		// work): the unit's sequential read passes stream down a registered
		// merge chain instead of waiting for the full matrix-vector product.
		// Stage set: front (decode+DAC+settle), one read pass, unit merge,
		// adder tree, [pooling], neuron, output buffer.
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
		bound := reg.Scale(maxInt(b.OutputsPerPass, 1) * (b.Stages - 1))
		b.PassPerf.Area += bound.Area
		b.PassPerf.StaticPower += bound.StaticPower
		b.PassPerf.DynamicEnergy += bound.DynamicEnergy
		cycle := reg.Latency
		for _, l := range stageLat {
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
		b.PassPerf.Latency = u.Compute.Latency + tree.Latency + pool.Latency +
			neuron.Latency + outBuf.Latency
		b.SampleLatency = b.PassPerf.Latency * float64(layer.Passes)
	}
	b.SampleEnergy = b.PassPerf.DynamicEnergy * float64(layer.Passes)
	return b, nil
}

// Power returns the bank's average power while streaming computation.
func (b *Bank) Power() float64 {
	return b.PassPerf.DynamicEnergy/b.PassPerf.Latency + b.PassPerf.StaticPower
}

// Accuracy evaluates the bank's crossbar computing error with the
// behaviour-level accuracy model: the merged worst/average voltage error
// rates of the layer's tiled crossbars, before quantization.
func (b *Bank) Accuracy(inDelta float64) (accuracy.LayerReport, error) {
	k := 1 << uint(b.Design.ADCBits())
	return accuracy.EvalLayer(b.Unit.Xbar, b.Layer.Rows, b.Layer.Cols, k, inDelta)
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
