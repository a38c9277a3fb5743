// Package custom reproduces the related-work case studies of Section VII.E:
// MNSIM's customization interfaces applied to PRIME (Chi et al., ISCA'16)
// and ISAAC (Shafiee et al., ISCA'16). PRIME re-uses the reference modules
// with a different connection (peripherals merged into reconfigurable
// units); ISAAC imports the publication's own module costs as customized
// modules and a 22-stage inner pipeline, exactly the procedure the paper
// describes. The two results are Table VII's rows; as the paper cautions,
// they are not comparable (the network scales differ).
package custom

import (
	"fmt"

	"mnsim/internal/accuracy"
	"mnsim/internal/arch"
	"mnsim/internal/crossbar"
	"mnsim/internal/device"
	"mnsim/internal/periph"
	"mnsim/internal/tech"
)

// Result is the Table VII metric set for one related-work design.
type Result struct {
	Name     string
	CMOSTech int
	// AreaMM2 is the structure's layout area in mm².
	AreaMM2 float64
	// EnergyPerTask is the energy of the evaluation task in joules.
	EnergyPerTask float64
	// Latency is the task latency in seconds.
	Latency float64
	// Accuracy is the average relative computing accuracy (0–1).
	Accuracy float64
}

// PRIME simulates one PRIME FF-subarray at its published configuration:
// 65 nm CMOS, four 256×256 RRAM crossbars, 6-bit fixed-point input/output
// and ADC precision, 8-bit signed weights on 4-bit cells (four cells per
// weight). The evaluation task is a 256×256 DNN layer at the subarray's
// peak throughput. The reference-design modules are reused; only the
// connection changes (adders, neurons and pooling move inside the
// reconfigurable units), which in the behaviour-level aggregate keeps the
// same module inventory (Section VII.E.1).
func PRIME() (Result, error) {
	dev := device.RRAM()
	dev.LevelBits = 4 // 4-bit cells per the PRIME configuration
	d := arch.Design{
		CrossbarSize:      256,
		Parallelism:       0, // PRIME's FF-subarray reads fully in parallel
		WeightPolarity:    2,
		TwoCrossbarSigned: true,
		WeightBits:        8,
		DataBits:          6,
		CMOS:              tech.MustNode(65),
		Wire:              tech.MustInterconnect(45),
		Dev:               dev,
		ADC:               periph.ADCVariableSA,
		Neuron:            periph.NeuronSigmoid,
		AreaCoefficient:   arch.DefaultAreaCoefficient,
	}
	// 8-bit weights on 4-bit cells: two slices, and the signed pair doubles
	// the crossbars — four cells per weight, as the paper states.
	if got := d.CellsPerWeight() * d.CrossbarsPerUnit(); got != 4 {
		return Result{}, fmt.Errorf("custom: PRIME mapping yields %d cells per weight, want 4", got)
	}
	layer := arch.LayerDims{Rows: 256, Cols: 256, Passes: 1}
	bank, err := arch.NewBank(&d, layer)
	if err != nil {
		return Result{}, err
	}
	// One FF-subarray holds four crossbars; the 256×256 signed 8-bit layer
	// occupies exactly two units (2 crossbars each).
	rep, err := bank.Accuracy(0)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Name:          "PRIME",
		CMOSTech:      65,
		AreaMM2:       bank.PassPerf.Area * 1e-6,
		EnergyPerTask: bank.PassPerf.DynamicEnergy,
		Latency:       bank.PassPerf.Latency,
		Accuracy:      1 - rep.AvgRate,
	}, nil
}

// ISAAC module costs imported from the original publication (32 nm), the
// "customized modules whose area consumption are introduced from the
// original publication" of Section VII.E.2. Areas in um², powers in watts.
type isaacModule struct {
	name  string
	count int
	area  float64
	power float64
}

// isaacTileModules is the per-tile inventory of ISAAC (Table 6 of the ISAAC
// paper): 12 IMAs of 8 crossbars each plus the tile-level eDRAM, bus, and
// compute units.
var isaacTileModules = []isaacModule{
	{"eDRAM buffer (64KB)", 1, 83000, 20.7e-3},
	{"eDRAM-to-IMA bus", 1, 45000, 7e-3},
	{"output register (3KB)", 1, 7700, 1.68e-3},
	{"shift-and-add", 1, 240, 0.05e-3},
	{"sigmoid unit", 2, 2060, 0.52e-3},
	{"max-pool unit", 1, 240, 0.4e-3},
	{"IMA: ADC 8-bit 1.2GS/s", 12 * 8, 1200, 2e-3},
	{"IMA: DAC array", 12 * 8 * 16, 17, 0.0329e-3},
	{"IMA: S&H", 12 * 8 * 128, 0.3, 6e-9},
	{"IMA: crossbar 128x128", 12 * 8, 25, 0.3e-3},
	{"IMA: shift-and-add", 12 * 4, 240, 0.05e-3},
	{"IMA: input/output registers", 12, 6000, 1.24e-3},
}

// isaacCycle is the ISAAC pipeline cycle time (100 ns) and isaacStages the
// tile's inner pipeline depth.
const (
	isaacCycle  = 100e-9
	isaacStages = 22
)

// ISAAC simulates one ISAAC tile: the customized module costs are imported
// from the publication, the latency simulation is customized to the
// 22-stage inner pipeline, and the energy accumulates the 22 cycles
// (Section VII.E.2). The evaluation task uses all 96 crossbars. RRAM is
// assumed for the cells (the authors did not publish device details).
func ISAAC() (Result, error) {
	var areaUM2, power float64
	for _, m := range isaacTileModules {
		areaUM2 += float64(m.count) * m.area
		power += float64(m.count) * m.power
	}
	latency := float64(isaacStages) * isaacCycle
	energy := power * latency
	// Accuracy from the behaviour-level model at ISAAC's 128-size crossbar,
	// merged over one IMA's 8 crossbars.
	dev := device.RRAM()
	dev.LevelBits = 2 // ISAAC stores 2 bits per cell
	xp := crossbar.New(128, 128, dev, tech.MustInterconnect(28))
	rep, err := accuracy.EvalLayer(xp, 128*8, 128, 1<<8, 0)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Name:          "ISAAC",
		CMOSTech:      32,
		AreaMM2:       areaUM2 * 1e-6,
		EnergyPerTask: energy,
		Latency:       latency,
		Accuracy:      1 - rep.AvgRate,
	}, nil
}
