package custom

import (
	"mnsim/internal/arch"
	"mnsim/internal/periph"
)

// SynapseOnly models the Fig. 2(c) customization (Liu et al., HPEC'14): a
// heterogeneous system where the memristor accelerator computes only the
// synapse function and a host CPU runs everything else. The computation
// bank keeps its synapse sub-banks but the adder tree is replaced by an
// analog router, and the neuron/pooling/output-buffer chain disappears
// (those functions move to the CPU); a result buffer feeds the bus instead.
type SynapseOnly struct {
	// Bank is the underlying full-featured bank the customization derives
	// from (for the unit inventory).
	Bank *arch.Bank
	// Perf is the customized per-pass performance of the accelerator part.
	Perf periph.Perf
	// CPUTransferBits is the per-pass data volume shipped to the CPU.
	CPUTransferBits int
}

// NewSynapseOnly customizes a bank per Fig. 2(c): users "provide the power,
// latency, area, and accuracy loss models of the new modules and add them
// to the simulation function of synapse sub-bank" (Section III.E.3). The
// analog router is modelled as one transfer-gate MUX per output merging the
// row blocks in the analog domain.
func NewSynapseOnly(d *arch.Design, layer arch.LayerDims) (*SynapseOnly, error) {
	bank, err := arch.NewBank(d, layer)
	if err != nil {
		return nil, err
	}
	n := d.CMOS
	u := bank.Unit

	// Analog router: a RowBlocks-to-1 analog mux per finished output.
	router, err := periph.Mux(n, maxInt(bank.RowBlocks, 2), 1)
	if err != nil {
		return nil, err
	}
	routers := router.Scale(maxInt(bank.OutputsPerPass, 1))

	// Result buffer holding one pass of outputs for the bus transfer.
	buf, err := periph.Register(n, d.DataBits)
	if err != nil {
		return nil, err
	}
	bufs := buf.Scale(maxInt(bank.OutputsPerPass, 1))

	units := u.Compute.Scale(bank.Units)
	s := &SynapseOnly{
		Bank:            bank,
		CPUTransferBits: layer.Cols * d.DataBits,
	}
	s.Perf = periph.Perf{
		Area:          units.Area + routers.Area + bufs.Area,
		StaticPower:   units.StaticPower + routers.StaticPower + bufs.StaticPower,
		DynamicEnergy: units.DynamicEnergy + routers.DynamicEnergy + bufs.DynamicEnergy,
		Latency:       u.Compute.Latency + router.Latency + buf.Latency,
	}
	return s, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
