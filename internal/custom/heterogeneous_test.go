package custom

import (
	"testing"

	"mnsim/internal/arch"
	"mnsim/internal/device"
	"mnsim/internal/periph"
	"mnsim/internal/tech"
)

func hetDesign() *arch.Design {
	return &arch.Design{
		CrossbarSize:      128,
		WeightPolarity:    2,
		TwoCrossbarSigned: true,
		WeightBits:        4,
		DataBits:          8,
		CMOS:              tech.MustNode(65),
		Wire:              tech.MustInterconnect(45),
		Dev:               device.RRAM(),
		ADC:               periph.ADCVariableSA,
		Neuron:            periph.NeuronSigmoid,
		AreaCoefficient:   arch.DefaultAreaCoefficient,
	}
}

func TestSynapseOnlyCustomization(t *testing.T) {
	layer := arch.LayerDims{Rows: 1024, Cols: 512, Passes: 1}
	s, err := NewSynapseOnly(hetDesign(), layer)
	if err != nil {
		t.Fatal(err)
	}
	// Dropping the digital merge and neuron chain must shrink both the
	// area and the pass latency of the full-featured bank.
	if s.Perf.Area >= s.Bank.PassPerf.Area {
		t.Errorf("synapse-only area %g not below the full bank %g", s.Perf.Area, s.Bank.PassPerf.Area)
	}
	if s.Perf.Latency >= s.Bank.PassPerf.Latency {
		t.Errorf("synapse-only latency %g not below the full bank %g", s.Perf.Latency, s.Bank.PassPerf.Latency)
	}
	if s.CPUTransferBits != 512*8 {
		t.Errorf("transfer = %d bits", s.CPUTransferBits)
	}
	// The accelerator part keeps the synapse units — area stays above the
	// bare unit total.
	unitsArea := s.Bank.Unit.Compute.Area * float64(s.Bank.Units)
	if s.Perf.Area <= unitsArea {
		t.Errorf("customized area %v should include the router/buffer above units %v", s.Perf.Area, unitsArea)
	}
	// The dropped neuron/merge chain is a substantial share for a wide
	// layer (sigmoid LUTs per output are expensive).
	if s.Perf.Area >= 0.95*s.Bank.PassPerf.Area {
		t.Errorf("synapse-only saves too little: %v vs %v", s.Perf.Area, s.Bank.PassPerf.Area)
	}
}

func TestSynapseOnlyErrors(t *testing.T) {
	bad := hetDesign()
	bad.WeightBits = 0
	if _, err := NewSynapseOnly(bad, arch.LayerDims{Rows: 8, Cols: 8, Passes: 1}); err == nil {
		t.Error("invalid design accepted")
	}
	if _, err := NewSynapseOnly(hetDesign(), arch.LayerDims{Rows: 0, Cols: 8, Passes: 1}); err == nil {
		t.Error("invalid layer accepted")
	}
}
