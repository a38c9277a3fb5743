// Package arch implements MNSIM's hierarchical accelerator structure
// (Section III of the paper): Computation Units assemble crossbars with
// their input/output peripherals, Computation Banks tile units over one
// network layer and merge them through the adder tree, pooling, neuron and
// buffer stages, and the Accelerator cascades one bank per layer behind the
// I/O interface modules.
//
// Performance aggregates bottom-up (Fig. 3): each level sums the area,
// energy and static power of its children and accumulates worst-case
// latency, the estimation policy of Section IV.A.
package arch

import (
	"fmt"

	"mnsim/internal/config"
	"mnsim/internal/crossbar"
	"mnsim/internal/device"
	"mnsim/internal/periph"
	"mnsim/internal/tech"
)

// Design carries the unit-level design parameters shared by every
// computation unit of an accelerator.
type Design struct {
	// CrossbarSize is the (square) crossbar dimension.
	CrossbarSize int
	// Parallelism is the computation parallelism degree p: the number of
	// read circuits per crossbar. 0 means fully parallel (one per column).
	Parallelism int
	// WeightPolarity is 1 for unsigned weights or 2 for signed.
	WeightPolarity int
	// TwoCrossbarSigned selects signed-weight method (1) of Section III.C.1
	// (a positive and a negative crossbar merged by subtractors). When
	// false, method (2) stores both polarities in one crossbar on paired
	// columns.
	TwoCrossbarSigned bool
	// WeightBits and DataBits set the algorithm precision.
	WeightBits, DataBits int
	// CMOS is the logic technology node for all peripheral modules.
	CMOS tech.CMOSNode
	// Wire is the crossbar interconnect technology.
	Wire tech.WireTech
	// Dev is the memristor device model.
	Dev device.Model
	// ADC selects the read-circuit design.
	ADC periph.ADCKind
	// Neuron selects the non-linear neuron circuit (by network type).
	Neuron periph.NeuronKind
	// AreaCoefficient multiplies estimated crossbar array area; the Fig. 6
	// layout validation supplies the reference value (>1 for routing slack).
	AreaCoefficient float64
	// InnerPipeline enables the ISAAC-style inner-layer pipeline the paper
	// lists as future work: the bank's merge chain (unit → adder tree →
	// pooling → neuron → buffer) is registered between stages, so the
	// bank's cycle shrinks to its slowest stage while a single pass takes
	// Stages cycles to fill.
	InnerPipeline bool
}

// Validate checks the design parameters.
func (d *Design) Validate() error {
	if err := d.validatePlan(); err != nil {
		return err
	}
	return d.validateParallelism()
}

// validatePlan checks every design parameter but the parallelism.
func (d *Design) validatePlan() error {
	switch {
	case d.CrossbarSize < 2:
		return fmt.Errorf("arch: crossbar size %d too small", d.CrossbarSize)
	case d.WeightPolarity != 1 && d.WeightPolarity != 2:
		return fmt.Errorf("arch: weight polarity %d must be 1 or 2", d.WeightPolarity)
	case d.WeightBits < 1 || d.DataBits < 1:
		return fmt.Errorf("arch: invalid precisions %d/%d", d.WeightBits, d.DataBits)
	case d.AreaCoefficient <= 0:
		return fmt.Errorf("arch: area coefficient %g must be positive", d.AreaCoefficient)
	}
	return d.Dev.Validate()
}

// validateParallelism checks the read parallelism against the crossbar size.
func (d *Design) validateParallelism() error {
	if d.Parallelism < 0 || d.Parallelism > d.CrossbarSize {
		return fmt.Errorf("arch: parallelism %d outside [0,%d]", d.Parallelism, d.CrossbarSize)
	}
	return nil
}

// CellsPerWeight returns how many memristor cells along a row store one
// weight: bit-slicing spreads WeightBits over cells of Dev.LevelBits each
// (Section III.B.2), and signed method (2) doubles the columns.
func (d *Design) CellsPerWeight() int {
	slices := (d.WeightBits + d.Dev.LevelBits - 1) / d.Dev.LevelBits
	if d.WeightPolarity == 2 && !d.TwoCrossbarSigned {
		return 2 * slices
	}
	return slices
}

// BitSlices returns the number of weight bit slices (shift-add merged).
func (d *Design) BitSlices() int {
	return (d.WeightBits + d.Dev.LevelBits - 1) / d.Dev.LevelBits
}

// CrossbarsPerUnit returns the physical crossbar count of one computation
// unit: two for the two-crossbar signed mapping, one otherwise.
func (d *Design) CrossbarsPerUnit() int {
	if d.WeightPolarity == 2 && d.TwoCrossbarSigned {
		return 2
	}
	return 1
}

// EffectiveParallelism resolves Parallelism to a concrete read-circuit
// count for a crossbar with physCols active columns.
func (d *Design) EffectiveParallelism(physCols int) int {
	p := d.Parallelism
	if p == 0 || p > physCols {
		p = physCols
	}
	return p
}

// Crossbar returns the behavioural crossbar parameters of this design for
// a block of the given logical shape.
func (d *Design) Crossbar(rows, cols int) crossbar.Params {
	return crossbar.New(rows, cols, d.Dev, d.Wire)
}

// ADCBits returns the read-circuit precision, set by the algorithm data
// precision following the ISAAC rule cited in Section V.C.
func (d *Design) ADCBits() int {
	return crossbar.RequiredADCBits(d.DataBits, d.Dev.LevelBits, d.CrossbarSize, d.DataBits)
}

// FromConfig builds a Design plus the per-layer dimensions from a parsed
// configuration (the module-generation step of the software flow, Fig. 3).
func FromConfig(cfg config.Config) (Design, []LayerDims, error) {
	if err := cfg.Validate(); err != nil {
		return Design{}, nil, err
	}
	node, err := tech.Node(cfg.CMOSTech)
	if err != nil {
		return Design{}, nil, err
	}
	wire, err := tech.Interconnect(cfg.InterconnectTech)
	if err != nil {
		return Design{}, nil, err
	}
	dev, err := device.ByName(cfg.MemristorModel)
	if err != nil {
		return Design{}, nil, err
	}
	cellType, err := device.ParseCellType(cfg.CellType)
	if err != nil {
		return Design{}, nil, err
	}
	dev.Type = cellType
	dev.RMin, dev.RMax = cfg.ResistanceRange[0], cfg.ResistanceRange[1]
	dev.Variation = cfg.Variation
	adc, err := periph.ParseADCKind(cfg.ADCDesign)
	if err != nil {
		return Design{}, nil, err
	}
	var neuron periph.NeuronKind
	switch cfg.NetworkType {
	case "ANN":
		neuron = periph.NeuronSigmoid
	case "SNN":
		neuron = periph.NeuronIntegrateFire
	case "CNN":
		neuron = periph.NeuronReLU
	}
	d := Design{
		CrossbarSize:      cfg.CrossbarSize,
		Parallelism:       cfg.ParallelismDegree,
		WeightPolarity:    cfg.WeightPolarity,
		TwoCrossbarSigned: cfg.WeightPolarity == 2,
		WeightBits:        cfg.WeightBits,
		DataBits:          cfg.DataBits,
		CMOS:              node,
		Wire:              wire,
		Dev:               dev,
		ADC:               adc,
		Neuron:            neuron,
		AreaCoefficient:   DefaultAreaCoefficient,
		InnerPipeline:     cfg.InnerPipeline,
	}
	if err := d.Validate(); err != nil {
		return Design{}, nil, err
	}
	layers := make([]LayerDims, len(cfg.NetworkScale))
	for i, s := range cfg.NetworkScale {
		layers[i] = LayerDims{Rows: s.Rows, Cols: s.Cols, Passes: 1}
		if cfg.NetworkType == "CNN" {
			layers[i].PoolK = cfg.PoolingSize
		}
	}
	return d, layers, nil
}

// DefaultAreaCoefficient is the crossbar-area correction factor: the
// paper's Fig. 6 layout validation found the fabricated 130 nm 32×32 1T1R
// array about 1.5× larger than its estimate (routing slack), and MNSIM
// folds that coefficient back into area estimation. The Fig. 6 bench
// recomputes the coefficient with this library's own models; users supply
// their own value for other technologies.
const DefaultAreaCoefficient = 1.5

// LayerDims describes one neuromorphic layer to be mapped onto a
// computation bank. For a fully-connected layer Rows×Cols is the weight
// matrix and Passes is 1; for a convolutional layer the kernel stack is
// flattened to (kw·kh·Cin)×Cout and Passes is the number of output pixels
// (Section II.B.3).
type LayerDims struct {
	// Rows and Cols give the flattened weight-matrix shape.
	Rows, Cols int
	// Passes is the number of compute passes per input sample.
	Passes int
	// PoolK is the pooling window size after this layer (0 = no pooling).
	PoolK int
	// OutBufLen is the line-buffer length of Eq. 6 for CNN layers
	// (0 = plain output registers, one per column).
	OutBufLen int
	// OutChannels is the number of separate line buffers (CNN feature
	// maps); ignored when OutBufLen is 0.
	OutChannels int
}

// Validate checks the layer dimensions.
func (l *LayerDims) Validate() error {
	if l.Rows < 1 || l.Cols < 1 {
		return fmt.Errorf("arch: layer shape %dx%d invalid", l.Rows, l.Cols)
	}
	if l.Passes < 1 {
		return fmt.Errorf("arch: layer passes %d invalid", l.Passes)
	}
	if l.PoolK < 0 || l.OutBufLen < 0 || l.OutChannels < 0 {
		return fmt.Errorf("arch: negative layer field")
	}
	return nil
}
