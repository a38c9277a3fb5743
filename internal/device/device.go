// Package device models the memristor cell: its programmable resistance
// states, non-linear I–V characteristic, stochastic variation, and layout
// area. It corresponds to the Memristor_Model, Cell_Type, and
// Resistance_Range entries of MNSIM's configuration list (Table I) and to
// the area models of Section V.A (Eq. 7–8 of the paper).
package device

import (
	"fmt"
	"math"
)

// CellType selects the cell access structure.
type CellType int

const (
	// Cell1T1R is a MOS-accessed cell (one transistor, one memristor).
	Cell1T1R CellType = iota
	// Cell0T1R is a cross-point cell without an access device.
	Cell0T1R
)

// String implements fmt.Stringer.
func (c CellType) String() string {
	switch c {
	case Cell1T1R:
		return "1T1R"
	case Cell0T1R:
		return "0T1R"
	default:
		return fmt.Sprintf("CellType(%d)", int(c))
	}
}

// ParseCellType converts the configuration-file spelling into a CellType.
func ParseCellType(s string) (CellType, error) {
	switch s {
	case "1T1R":
		return Cell1T1R, nil
	case "0T1R":
		return Cell0T1R, nil
	default:
		return 0, fmt.Errorf("device: unknown cell type %q (want 1T1R or 0T1R)", s)
	}
}

// Model describes one memristor device technology. The zero value is not
// usable; construct models with RRAM, PCM, or New.
type Model struct {
	// Name identifies the technology ("RRAM", "PCM", ...).
	Name string
	// RMin and RMax bound the programmable resistance range in ohms
	// (Table I default [500, 500k]).
	RMin, RMax float64
	// LevelBits is the programming precision of one cell in bits; the cell
	// stores 2^LevelBits distinguishable resistance levels. The large-bank
	// case study uses the 7-bit device of Gao et al.
	LevelBits int
	// ReadVoltage is the calibration voltage in volts: programming verifies
	// each resistance level at this bias, so the level is exact there and
	// deviates elsewhere through the non-linear I–V law. The reference
	// crossbar design drives inputs at twice this value (program-verify at
	// half bias), so a cell's operating point moves across the calibration
	// point as the crossbar size changes — the mechanism behind the
	// U-shaped error-versus-size curve of Table V.
	ReadVoltage float64
	// WriteVoltage and WriteLatency characterise programming; they matter
	// for the WRITE instruction only since compute never rewrites cells.
	WriteVoltage float64
	WriteLatency float64
	// SwitchLatency is the intrinsic cell read/compute response time from
	// the device datasheet (not captured by the wire-RC transient model).
	SwitchLatency float64
	// CellCap is the parasitic capacitance one cell presents to its column
	// node in farads (cell plus access-device junction).
	CellCap float64
	// NonlinearVc is the characteristic voltage of the sinh-shaped I–V curve
	// I(V) = A·sinh(V/Vc). Smaller Vc means a more non-linear device.
	NonlinearVc float64
	// Endurance is the number of write cycles a cell survives; it bounds
	// on-chip training (Section VIII future work) and motivates the
	// fixed-weight inference deployment the paper analyses.
	Endurance float64
	// Variation is the maximum fractional resistance deviation sigma
	// (0 … 0.3 across published devices); 0 reproduces the paper's
	// noise-free reference results.
	Variation float64
	// FeatureNM is the memristor feature size F in nanometres used by the
	// cell area models.
	FeatureNM float64
	// AccessWL is the W/L ratio of the access transistor for 1T1R cells.
	AccessWL float64
	// Type selects 1T1R or 0T1R.
	Type CellType
}

// RRAM returns the reference RRAM model used throughout the experiments:
// a computing-oriented high-resistance-state device (100 kΩ – 10 MΩ) with
// 7-bit programmable levels. The paper's configuration table lists a
// memory-style [500 Ω, 500 kΩ] default; a physical crossbar solve with
// shared-wire IR drop shows such low-resistance states are unusable for
// computation at the paper's crossbar sizes, so — like the follow-on
// MNSIM 2.0 and NeuroSim platforms — the compute reference device uses
// high-resistance states. The substitution is recorded in DESIGN.md.
func RRAM() Model {
	return Model{
		Name:          "RRAM",
		RMin:          100e3,
		RMax:          10e6,
		LevelBits:     7,
		ReadVoltage:   0.15,
		WriteVoltage:  2.0,
		WriteLatency:  100e-9, // program-and-verify pulse train
		SwitchLatency: 0.5e-9,
		CellCap:       2e-15,
		Endurance:     1e9,
		NonlinearVc:   0.40,
		Variation:     0,
		FeatureNM:     45,
		AccessWL:      2,
		Type:          Cell1T1R,
	}
}

// PCM returns a phase-change-memory model: higher resistance window, slower
// and more energetic writes than RRAM.
func PCM() Model {
	return Model{
		Name:          "PCM",
		RMin:          500e3,
		RMax:          50e6,
		LevelBits:     4,
		ReadVoltage:   0.10,
		WriteVoltage:  3.0,
		WriteLatency:  100e-9,
		SwitchLatency: 5e-9,
		CellCap:       3e-15,
		Endurance:     1e8,
		NonlinearVc:   0.40,
		Variation:     0,
		FeatureNM:     45,
		AccessWL:      4,
		Type:          Cell1T1R,
	}
}

// ByName returns the built-in model with the given configuration-file name.
func ByName(name string) (Model, error) {
	switch name {
	case "RRAM":
		return RRAM(), nil
	case "PCM":
		return PCM(), nil
	default:
		return Model{}, fmt.Errorf("device: unknown memristor model %q (want RRAM or PCM)", name)
	}
}

// Validate reports whether the model parameters are physically meaningful.
func (m Model) Validate() error {
	switch {
	case m.RMin <= 0 || m.RMax <= m.RMin:
		return fmt.Errorf("device %s: resistance range [%g, %g] invalid", m.Name, m.RMin, m.RMax)
	case m.LevelBits < 1 || m.LevelBits > 10:
		return fmt.Errorf("device %s: level bits %d out of range [1,10]", m.Name, m.LevelBits)
	case m.ReadVoltage <= 0:
		return fmt.Errorf("device %s: read voltage must be positive", m.Name)
	case m.NonlinearVc <= 0:
		return fmt.Errorf("device %s: non-linear Vc must be positive", m.Name)
	case m.Variation < 0 || m.Variation > 0.5:
		return fmt.Errorf("device %s: variation %g out of range [0,0.5]", m.Name, m.Variation)
	case m.FeatureNM <= 0:
		return fmt.Errorf("device %s: feature size must be positive", m.Name)
	}
	return nil
}

// Levels returns the number of programmable resistance levels, 2^LevelBits.
func (m Model) Levels() int { return 1 << uint(m.LevelBits) }

// LevelResistance returns the calibrated resistance of programming level
// lvl in [0, Levels()-1]. Level 0 is RMax (weight 0, minimum conductance)
// and the top level is RMin; intermediate levels are spaced uniformly in
// conductance so that the stored weight is linear in conductance, matching
// the analog matrix-vector product of Eq. 1–2.
func (m Model) LevelResistance(lvl int) (float64, error) {
	n := m.Levels()
	if lvl < 0 || lvl >= n {
		return 0, fmt.Errorf("device %s: level %d out of range [0,%d)", m.Name, lvl, n)
	}
	gMin, gMax := 1/m.RMax, 1/m.RMin
	g := gMin + (gMax-gMin)*float64(lvl)/float64(n-1)
	return 1 / g, nil
}

// HarmonicMeanR returns the harmonic mean of RMin and RMax. MNSIM uses it
// as the average-case resistance of all cells when estimating computation
// power (Section V.A).
func (m Model) HarmonicMeanR() float64 {
	return 2 / (1/m.RMin + 1/m.RMax)
}

// Prefactor returns the A of the I–V law I(V) = A·sinh(V/Vc) for a cell
// programmed to calibrated resistance rState:
//
//	A = V_read / (rState · sinh(V_read/Vc)),
//
// chosen so that V_read / I(V_read) = rState. Loops over many cells
// evaluate sinh(V_read/Vc) once and call CellPrefactor instead.
func (m Model) Prefactor(rState float64) float64 {
	return prefactor(m.ReadVoltage, m.NonlinearVc, rState)
}

// CellPrefactor is Prefactor with the calibration constant
// sr = sinh(vr/Vc) supplied by the caller, vr being the read voltage; for
// the same sr it returns Prefactor's bits.
func CellPrefactor(vr, sr, rState float64) float64 {
	return vr / (rState * sr)
}

// prefactor is Prefactor on the two fields it reads. The Model methods
// call it rather than m.Prefactor: inlining one Model method into another
// copies the whole struct on every call.
func prefactor(vr, vc, rState float64) float64 {
	return CellPrefactor(vr, math.Sinh(vr/vc), rState)
}

// Current returns the device current in amperes at voltage v when the cell
// is programmed to calibrated resistance rState. The I–V law is
//
//	I(V) = A · sinh(V/Vc),  A = Prefactor(rState),
//
// i.e. the programmed level is exact at the calibration (read) voltage and
// deviates away from it — the behaviour the accuracy model's R_act term
// captures (Section VI.A). The law is odd-symmetric in V.
func (m Model) Current(v, rState float64) float64 {
	return prefactor(m.ReadVoltage, m.NonlinearVc, rState) * math.Sinh(v/m.NonlinearVc)
}

// Conductance returns the small-signal conductance dI/dV at voltage v for a
// cell programmed to rState; the Newton linearisation of the circuit solver
// stamps this value.
func (m Model) Conductance(v, rState float64) float64 {
	return prefactor(m.ReadVoltage, m.NonlinearVc, rState) / m.NonlinearVc * math.Cosh(v/m.NonlinearVc)
}

// EffectiveR returns the secant (large-signal) resistance V/I(V) of a cell
// programmed to rState when operated at voltage v. At v = ReadVoltage it
// equals rState exactly; at lower operating voltages the sinh law makes the
// device look more resistive. For |v| → 0 the analytic limit is returned.
func (m Model) EffectiveR(v, rState float64) float64 {
	if v == 0 {
		// lim V→0 V / (A sinh(V/Vc)) = Vc/A
		return m.NonlinearVc / prefactor(m.ReadVoltage, m.NonlinearVc, rState)
	}
	return v / m.Current(v, rState)
}

// SinhCosh returns math.Sinh(x) and math.Cosh(x), bit for bit, from one
// math.Exp where the two would call it twice. It copies the branches of
// Go's portable sinh and cosh, which every port but s390x (assembly
// versions) runs: above |x| = 21 both are Exp(|x|)/2; above
// |x| = 1/2 they share ex and 1/ex; at or below it sinh is the Hart–Cheney
// #2029 rational polynomial and cosh still takes the exponential. The
// Newton restamp evaluates every cell's current and conductance through
// it. TestSinhCoshBits and FuzzSinhCosh pin the bits: Go lets a compiler
// fuse x*y+z into one rounding, so an architecture that contracts this
// polynomial differently from the math package's fails them.
func SinhCosh(x float64) (sinh, cosh float64) {
	// Hart & Cheney #2029 (20.36D), math.sinh's coefficients.
	const (
		P0 = -0.6307673640497716991184787251e+6
		P1 = -0.8991272022039509355398013511e+5
		P2 = -0.2894211355989563807284660366e+4
		P3 = -0.2630563213397497062819489e+2
		Q0 = -0.6307673640497716991212077277e+6
		Q1 = 0.1521517378790019070696485176e+5
		Q2 = -0.173678953558233699533450911e+3
	)
	// ax is math.sinh's folded argument; it differs from math.Abs(x),
	// cosh's, only on -0 and a negative NaN, which both take the
	// polynomial branch below.
	ax, neg := x, false
	if x < 0 {
		ax, neg = -x, true
	}
	switch {
	case ax > 21:
		sinh = math.Exp(ax) * 0.5
		cosh = sinh
	case ax > 0.5:
		ex := math.Exp(ax)
		sinh = (ex - 1/ex) * 0.5
		cosh = (ex + 1/ex) * 0.5
	default:
		sq := ax * ax
		sinh = (((P3*sq+P2)*sq+P1)*sq + P0) * ax
		sinh = sinh / (((sq+Q2)*sq+Q1)*sq + Q0)
		ex := math.Exp(math.Abs(x))
		cosh = (ex + 1/ex) * 0.5
	}
	if neg {
		sinh = -sinh
	}
	return sinh, cosh
}

// CellArea returns the layout area of one cell in square micrometres,
// following the paper's Eq. 7 (MOS-accessed) and Eq. 8 (cross-point):
//
//	AREA_mos-accessed = 3·(W/L + 1)·F²
//	AREA_cross-point  = 4·F²
func (m Model) CellArea() float64 {
	f := m.FeatureNM * 1e-3 // um
	switch m.Type {
	case Cell1T1R:
		return 3 * (m.AccessWL + 1) * f * f
	default:
		return 4 * f * f
	}
}

// WriteEnergy returns the programming energy of one cell, V²/R·t at the
// write voltage against the harmonic-mean resistance.
func (m Model) WriteEnergy() float64 {
	return m.WriteVoltage * m.WriteVoltage / m.HarmonicMeanR() * m.WriteLatency
}

// MeanConductance returns the mean cell conductance of a uniformly
// distributed level population, (g_min + g_max)/2 — the reciprocal of the
// harmonic-mean resistance used by the average-case models.
func (m Model) MeanConductance() float64 {
	return (1/m.RMin + 1/m.RMax) / 2
}

// MeanSquareConductance returns E[g²] of a uniform conductance population,
// (g_max³ − g_min³) / (3·(g_max − g_min)); the second moment feeds the
// decorrelated average-case power model.
func (m Model) MeanSquareConductance() float64 {
	gMax, gMin := 1/m.RMin, 1/m.RMax
	return (gMax*gMax*gMax - gMin*gMin*gMin) / (3 * (gMax - gMin))
}

// AvgPowerFactor returns the ratio of the true average conduction power of
// the sinh device to the linear-resistor prediction, for a drive voltage
// uniformly distributed over [0, vmax]:
//
//	E[v·I(v)] / (E[v²]/R) = 3·Vread / (vmax³·sinh(Vread/Vc)) ·
//	                        [Vc·vmax·cosh(vmax/Vc) − Vc²·sinh(vmax/Vc)]
//
// using the closed form ∫ v·sinh(v/c) dv = c·v·cosh(v/c) − c²·sinh(v/c).
// The factor tends to 1 in the linear limit Vc → ∞; the power models apply
// it to fold the non-linear conduction into the average-case estimate.
func (m Model) AvgPowerFactor(vmax float64) float64 {
	if vmax <= 0 {
		return 1
	}
	c := m.NonlinearVc
	var integral float64
	if vmax/c < 0.01 {
		// The closed form subtracts two nearly equal terms in the linear
		// limit; switch to the series
		// ∫ v·sinh(v/c) dv = V³/(3c) + V⁵/(30c³) + V⁷/(840c⁵) + …
		v3 := vmax * vmax * vmax
		integral = v3/(3*c) + v3*vmax*vmax/(30*c*c*c) + v3*v3*vmax/(840*c*c*c*c*c)
	} else {
		integral = c*vmax*math.Cosh(vmax/c) - c*c*math.Sinh(vmax/c)
	}
	// sinh(x)/x → 1 as x → 0; compute the prefactor the same stable way.
	x := m.ReadVoltage / c
	sinhOverX := math.Sinh(x) / x
	if x < 1e-4 {
		sinhOverX = 1 + x*x/6
	}
	return 3 / (vmax * vmax * vmax * sinhOverX / c) * integral
}

// QuantizeWeight maps an unsigned fixed-point weight w in [0,1] onto the
// nearest programmable level and returns the level index and the calibrated
// resistance. This is the mapping step of the software flow (Fig. 3).
func (m Model) QuantizeWeight(w float64) (lvl int, r float64, err error) {
	if w < 0 || w > 1 {
		return 0, 0, fmt.Errorf("device %s: weight %g outside [0,1]", m.Name, w)
	}
	n := m.Levels()
	lvl = int(math.Round(w * float64(n-1)))
	r, err = m.LevelResistance(lvl)
	return lvl, r, err
}
