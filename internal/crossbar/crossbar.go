// Package crossbar implements the behaviour-level memristor crossbar model:
// the analog matrix–vector multiplication of Eq. 1–2, and the area, power,
// and latency estimates of Section V.A of the paper. The computing-accuracy
// estimate built on top of this model lives in package accuracy.
package crossbar

import (
	"fmt"
	"math"
	"math/bits"

	"mnsim/internal/device"
	"mnsim/internal/tech"
)

// Params describes one crossbar instance at the behaviour level.
type Params struct {
	// Rows (M) and Cols (N) give the crossbar dimensions.
	Rows, Cols int
	// Dev is the memristor cell model.
	Dev device.Model
	// Wire carries the interconnect technology (segment resistance and
	// capacitance between neighbouring cells).
	Wire tech.WireTech
	// RSense is the column sensing resistance in ohms. The reference design
	// uses a small load so the column output stays within the read-circuit
	// input range.
	RSense float64
	// VDrive is the full-scale input voltage applied by the DACs. The
	// reference programming scheme verifies cell levels at half bias
	// (Dev.ReadVoltage = VDrive/2), so cells operated away from that point
	// deviate through the non-linear I–V law.
	VDrive float64
}

// DefaultRSense is the reference column sensing resistance. It is sized so
// that a mid-size (≈64-row) column of minimum-resistance cells splits the
// drive voltage roughly in half, placing the cell operating point at the
// program-verify calibration voltage where the non-linear deviation
// vanishes — the design sweet spot the Table V trade-off exposes.
const DefaultRSense = 1500.0

// New returns crossbar parameters for the reference design: sensing
// resistance DefaultRSense, drive voltage at twice the device calibration
// voltage.
func New(rows, cols int, dev device.Model, wire tech.WireTech) Params {
	return Params{
		Rows:   rows,
		Cols:   cols,
		Dev:    dev,
		Wire:   wire,
		RSense: DefaultRSense,
		VDrive: 2 * dev.ReadVoltage,
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.Rows <= 0 || p.Cols <= 0 {
		return fmt.Errorf("crossbar: invalid size %dx%d", p.Rows, p.Cols)
	}
	if p.RSense <= 0 {
		return fmt.Errorf("crossbar: sense resistance must be positive")
	}
	if p.VDrive <= 0 {
		return fmt.Errorf("crossbar: drive voltage must be positive")
	}
	if err := p.Dev.Validate(); err != nil {
		return err
	}
	return nil
}

// Area returns the crossbar array area in square micrometres: cells × the
// per-cell footprint of Eq. 7 (1T1R) or Eq. 8 (cross-point).
func (p Params) Area() float64 {
	return float64(p.Rows*p.Cols) * p.Dev.CellArea()
}

// AvgDriveRMS returns the root-mean-square input voltage of the average
// case: inputs are uniformly distributed over [0, VDrive], so the mean
// squared drive is VDrive²/3. Power models use the RMS value; the accuracy
// model's average case uses the mean (VDrive/2).
func (p Params) AvgDriveRMS() float64 {
	return p.VDrive / math.Sqrt(3)
}

// ComputePower returns the average-case power during a COMPUTE operation in
// watts. All cells are selected (Section II.C), so the whole array
// conducts. The average case draws cell conductances uniformly over the
// level population (mean g₁ = 1/R_hm per Section V.A, second moment g₂) and
// inputs uniformly over [0, VDrive]. The expected per-column power of the
// loaded divider, with uncorrelated inputs, is
//
//	P_col = M·g₁·E[v²] − (M·g₂·E[v²] + M·(M−1)·g₁²·E[v]²) / (g_s + M·g₁)
//
// (the backpressure of the column node correlates only partially with each
// row's drive); the sinh conduction factor folds in the non-linear I–V.
func (p Params) ComputePower() float64 {
	g1 := p.Dev.MeanConductance()
	g2 := p.Dev.MeanSquareConductance()
	gs := 1 / p.RSense
	m := float64(p.Rows)
	ev2 := p.VDrive * p.VDrive / 3
	ev1 := p.VDrive / 2
	pCol := m*g1*ev2 - (m*g2*ev2+m*(m-1)*g1*g1*ev1*ev1)/(gs+m*g1)
	return float64(p.Cols) * pCol * p.Dev.AvgPowerFactor(p.VDrive)
}

// ReadPower returns the average-case power of a memory-style READ, where
// only one row is selected: each driven cell conducts into the column node
// loaded by R_s in parallel with the (M−1) sneak cells of the unselected
// rows.
func (p Params) ReadPower() float64 {
	v := p.AvgDriveRMS()
	rhm := p.Dev.HarmonicMeanR()
	load := 1 / (1/p.RSense + float64(p.Rows-1)/rhm)
	return float64(p.Cols) * v * v / (rhm + load) * p.Dev.AvgPowerFactor(p.VDrive)
}

// settleLn is ln(512): the output must settle within half an LSB of an
// 8-bit read circuit.
const settleLn = 6.2383246250395075 // math.Log(512)

// Latency returns the crossbar settling latency for one compute cycle. The
// output column is a dominant-pole RC node: the column capacitance
// M·(C_wire + C_cell) discharged through R_parallel ∥ R_s, settling to half
// an LSB in ln(512) time constants, plus the distributed wire Elmore delay
// and the intrinsic cell response from the device datasheet:
//
//	t = ln(512)·(R_hm/M ∥ R_s)·M·(C_seg + C_cell) + 0.38·r·c·(M+N)² + t_cell
func (p Params) Latency() float64 {
	m := float64(p.Rows)
	rp := p.Dev.HarmonicMeanR() / m
	rDrive := rp * p.RSense / (rp + p.RSense)
	cCol := m * (p.Wire.SegmentC + p.Dev.CellCap)
	n := float64(p.Rows + p.Cols)
	elmore := 0.38 * p.Wire.SegmentR * p.Wire.SegmentC * n * n
	return settleLn*rDrive*cCol + elmore + p.Dev.SwitchLatency
}

// ComputeEnergy returns the energy of one compute cycle.
func (p Params) ComputeEnergy() float64 {
	return p.ComputePower() * p.Latency()
}

// IdealMVM computes the interconnect-free analog matrix–vector product of
// Eq. 1–2: out_n = Σ_m g[m][n]·vin[m] / (g_s + Σ_m g[m][n]), where g holds
// cell conductances in siemens. It is the fixed-point "ideal result" that
// the accuracy model measures deviations against.
func (p Params) IdealMVM(g [][]float64, vin []float64) ([]float64, error) {
	if len(g) != p.Rows {
		return nil, fmt.Errorf("crossbar: conductance matrix has %d rows, want %d", len(g), p.Rows)
	}
	if len(vin) != p.Rows {
		return nil, fmt.Errorf("crossbar: input length %d, want %d", len(vin), p.Rows)
	}
	gs := 1 / p.RSense
	out := make([]float64, p.Cols)
	for n := 0; n < p.Cols; n++ {
		num, den := 0.0, gs
		for m := 0; m < p.Rows; m++ {
			if len(g[m]) != p.Cols {
				return nil, fmt.Errorf("crossbar: conductance row %d has %d cols, want %d", m, len(g[m]), p.Cols)
			}
			num += g[m][n] * vin[m]
			den += g[m][n]
		}
		out[n] = num / den
	}
	return out, nil
}

// MapWeights quantizes a non-negative weight matrix (values in [0,1]) onto
// device conductances, returning the conductance matrix for IdealMVM and the
// programmed resistances for circuit-level simulation. This is the
// weight-mapping step of the software flow (Fig. 3).
func (p Params) MapWeights(w [][]float64) (g, r [][]float64, err error) {
	if len(w) != p.Rows {
		return nil, nil, fmt.Errorf("crossbar: weight matrix has %d rows, want %d", len(w), p.Rows)
	}
	g = make([][]float64, p.Rows)
	r = make([][]float64, p.Rows)
	for m := range w {
		if len(w[m]) != p.Cols {
			return nil, nil, fmt.Errorf("crossbar: weight row %d has %d cols, want %d", m, len(w[m]), p.Cols)
		}
		g[m] = make([]float64, p.Cols)
		r[m] = make([]float64, p.Cols)
		for n, wv := range w[m] {
			_, res, err := p.Dev.QuantizeWeight(wv)
			if err != nil {
				return nil, nil, err
			}
			r[m][n] = res
			g[m][n] = 1 / res
		}
	}
	return g, r, nil
}

// LayoutCoefficient is the area-correction factor derived from the paper's
// 130 nm 32×32 1T1R layout (Fig. 6): measured 3420 um² vs. the model's
// estimate, folded back into area estimation as a multiplier. See
// LayoutCalibration.
const layoutMeasuredArea = 3420.0 // um², 45um × 76um at 130 nm

// LayoutCalibration reproduces the Fig. 6 validation: it returns the model
// estimate for a 32×32 1T1R crossbar plus computation-oriented decoder at
// 130 nm, the measured layout area, and the resulting correction
// coefficient users can apply to their own technology.
func LayoutCalibration(decoderArea float64) (modelArea, measuredArea, coefficient float64) {
	dev := device.RRAM()
	dev.FeatureNM = 130
	p := Params{Rows: 32, Cols: 32, Dev: dev, RSense: DefaultRSense, VDrive: 2 * dev.ReadVoltage}
	modelArea = p.Area() + decoderArea
	return modelArea, layoutMeasuredArea, layoutMeasuredArea / modelArea
}

// MaxConductanceSum returns the largest possible column conductance sum,
// used by read-circuit range sizing.
func (p Params) MaxConductanceSum() float64 {
	return float64(p.Rows) / p.Dev.RMin
}

// OutputFullScale estimates the maximum column output voltage (all cells at
// minimum resistance, full-scale inputs, no interconnect loss); the ADC
// reference range is sized to this value.
func (p Params) OutputFullScale() float64 {
	g := p.MaxConductanceSum()
	return p.VDrive * g / (1/p.RSense + g)
}

// RequiredADCBits returns the read-circuit precision needed to resolve the
// analog MVM exactly, following the rule the paper cites from ISAAC: with
// b_in input bits, b_cell cell bits, and M rows accumulating, the result
// spans b_in + b_cell + ceil(log2 M) bits, clamped to the algorithm's data
// precision dataBits (neuromorphic computing tolerates 8-bit quantization).
func RequiredADCBits(inputBits, cellBits, rows, dataBits int) int {
	full := inputBits + cellBits + ceilLog2(rows)
	if full > dataBits {
		return dataBits
	}
	return full
}

func ceilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}
