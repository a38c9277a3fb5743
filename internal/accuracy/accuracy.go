// Package accuracy implements MNSIM's behaviour-level computing accuracy
// model (Section VI of the paper). The model replaces the circuit-level
// solve of the non-linear Kirchhoff equations with three approximations:
//
//  1. the non-linear I–V characteristic is decoupled — the operating point
//     is found with linear cells, then the actual resistance R_act at that
//     point is substituted back (Section VI.A);
//  2. interconnect lines are resistance-only (Section VI.B);
//  3. only the average and worst cases are evaluated (Section VI.C).
//
// The resulting voltage error rate ε feeds the digital deviation model
// (Eq. 12–14), the layer-to-layer propagation rule (Eq. 15), and the
// device-variation extension (Eq. 16).
//
// # Seeding contract
//
// The statistical extension (MonteCarlo) is a pure function of its
// options: trial t draws from its own generator, seeded from
// (MCOptions.Seed, t), so two runs with identical options produce
// bit-identical results at any worker count. A zero Seed selects
// DefaultSeed; callers that want decorrelated runs pass distinct seeds.
package accuracy

import (
	"fmt"
	"math"

	"mnsim/internal/crossbar"
)

// VoltageError holds the relative output-voltage error rate ε of a crossbar
// in the worst and average cases. Values are signed: positive means the
// actual output is below the ideal one.
type VoltageError struct {
	Worst float64
	Avg   float64
}

// Eval computes the crossbar output-voltage error rate per Section VI.C.
//
// Worst case: the adversarial bound |ε_wire| + |ε_nonlinear| over the
// all-R_min population on the farthest column at full-scale inputs. The two
// mechanisms are bounded separately because their signs depend on the
// column's weight pattern (sparsely-used columns overshoot through the
// non-linear I–V, dense columns undershoot through the wire loss), so a
// worst-case estimate cannot credit their coincidental cancellation — see
// WorstCaseColumn for the signed single-corner value that circuit-level
// simulation measures.
//
// Average case: cells at the harmonic mean of R_min/R_max, half the wire
// length, and half-scale inputs, signed (cancellation is expected on
// average).
//
// Each term follows the paper's evaluation: find the ideal operating point
// with linear cells (Eq. 9), substitute the non-linear actual resistance
// R_act at the resulting cell voltage, add the interconnect series term, and
// compare the loaded output against the ideal one (Eq. 11).
func Eval(p crossbar.Params) (VoltageError, error) {
	return evalSigma(p, 0)
}

func evalSigma(p crossbar.Params, sigma float64) (VoltageError, error) {
	if err := p.Validate(); err != nil {
		return VoltageError{}, err
	}
	wt := WireTerm(p.Rows, p.Cols, p.Wire.SegmentR)
	ic := columnError(p, p.Dev.RMin, wt, p.VDrive, 0, false)
	nl := worseOf(
		columnError(p, p.Dev.RMin, 0, p.VDrive, +sigma, true),
		columnError(p, p.Dev.RMin, 0, p.VDrive, -sigma, true))
	worst := math.Abs(ic) + math.Abs(nl)
	avg := worseOf(
		columnError(p, p.Dev.HarmonicMeanR(), wt/2, p.VDrive/2, +sigma, true),
		columnError(p, p.Dev.HarmonicMeanR(), wt/2, p.VDrive/2, -sigma, true))
	return VoltageError{Worst: worst, Avg: avg}, nil
}

// WorstCaseColumn returns the signed relative error of the canonical
// worst-case corner — every cell at R_min, the farthest column, full-scale
// inputs, wire and non-linearity acting together. This is the quantity the
// circuit-level solver measures in the Fig. 5 experiment; the fit test in
// this package holds the model to the paper's RMSE < 0.01 against it.
func WorstCaseColumn(p crossbar.Params) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	wt := WireTerm(p.Rows, p.Cols, p.Wire.SegmentR)
	return columnError(p, p.Dev.RMin, wt, p.VDrive, 0, true), nil
}

// WireTerm is the effective series interconnect resistance of the worst
// (farthest) column. The paper's Eq. 10 uses the per-cell path length
// (M+N)·r; a physical solve of the shared wire grid shows the drops of all
// cells sharing a wire accumulate, so the effective term is quadratic:
//
//	W = r · (M² + N²) / 2
//
// (for each axis, the far cell sees the summed drop of ~n/2 downstream cell
// currents over n segments). This form was fitted against the circuit-level
// solver exactly as the paper fits Eq. 11 against SPICE (Fig. 5); the fit
// test in this package keeps it honest.
func WireTerm(m, n int, r float64) float64 {
	return r * float64(m*m+n*n) / 2
}

// EvalWithVariation is Eval extended with the device-variation model of
// Eq. 16: the actual resistance is additionally deviated by the worst-case
// factor (1±σ), choosing the sign that enlarges the error.
func EvalWithVariation(p crossbar.Params, sigma float64) (VoltageError, error) {
	if sigma < 0 || sigma > 0.5 {
		return VoltageError{}, fmt.Errorf("accuracy: variation sigma %g outside [0,0.5]", sigma)
	}
	return evalSigma(p, sigma)
}

func worseOf(a, b float64) float64 {
	if math.Abs(a) >= math.Abs(b) {
		return a
	}
	return b
}

// columnError evaluates the signed relative error of one column:
// (V_idl − V_act) / V_idl with
//
//	V_idl = V·R_s·M / (R_state + R_s·M)                    (Eq. 9)
//	V_act = V·R_s·M / (R_act·(1±σ) + wire + R_s·M)
//
// where R_act is the device's secant resistance at the cell operating
// voltage found from the ideal solution (approximation 1); nonlinear=false
// freezes R_act at the calibrated value, isolating the interconnect term.
func columnError(p crossbar.Params, rState, wire, vIn, sigma float64, nonlinear bool) float64 {
	m := float64(p.Rows)
	rsM := p.RSense * m
	vIdl := vIn * rsM / (rState + rsM)
	vCell := vIn - vIdl
	rAct := rState
	if nonlinear {
		rAct = p.Dev.EffectiveR(vCell, rState)
	}
	rAct *= 1 + sigma
	vAct := vIn * rsM / (rAct + wire + rsM)
	return (vIdl - vAct) / vIdl
}

// Merged returns the effective error rate after the adder tree merges Q
// sub-crossbar results. The worst case takes no credit (all blocks deviate
// the same way); the average case treats block errors as independent and
// reduces by 1/√Q. Q < 1 is treated as 1.
func Merged(e VoltageError, q int) VoltageError {
	if q < 1 {
		q = 1
	}
	return VoltageError{Worst: e.Worst, Avg: e.Avg / math.Sqrt(float64(q))}
}

// MaxDigitalDeviation implements Eq. 12: with k quantization levels and
// voltage deviation rate eps, the worst-case read deviation in LSBs is
// ⌊(k−1.5)·ε + 0.5⌋.
func MaxDigitalDeviation(eps float64, k int) int {
	if k < 2 {
		return 0
	}
	return int(math.Floor((float64(k)-1.5)*math.Abs(eps) + 0.5))
}

// MaxErrorRate implements Eq. 13: the worst-case digital error rate
// ⌊(k−1.5)·ε + 0.5⌋ / (k−1).
func MaxErrorRate(eps float64, k int) float64 {
	if k < 2 {
		return 0
	}
	return float64(MaxDigitalDeviation(eps, k)) / float64(k-1)
}

// AvgDigitalDeviation implements Eq. 14: the mean read deviation in LSBs
// over all k levels, Σ_{i=0..k−1} ⌊i·ε + 0.5⌋ / k.
//
// The terms t(i) are non-decreasing integers, so the sum is counted
// rather than looped: Σ t(i) = Σ_{j=1..t(k−1)} #{i : t(i) ≥ j}, one count
// per LSB of the largest term (firstReaching). While t(k−1)·k < 2⁵³ every
// partial sum of the loop is an exact integer, so the count reproduces its
// bits. The loop stays for t(k−1) > k, where it is the shorter walk, for
// sums that could pass 2⁵³, and for a non-finite ε.
func AvgDigitalDeviation(eps float64, k int) float64 {
	if k < 2 {
		return 0
	}
	e := math.Abs(eps)
	top := avgTerm(k-1, e)
	if math.IsInf(e, 0) || math.IsNaN(e) || top > float64(k) || top*float64(k) >= 1<<53 {
		sum := 0.0
		for i := 0; i < k; i++ {
			sum += avgTerm(i, e)
		}
		return sum / float64(k)
	}
	sum := 0
	for j := 1; j <= int(top); j++ {
		sum += k - firstReaching(e, k, j)
	}
	return float64(sum) / float64(k)
}

// avgTerm is the i-th term of Eq. 14, ⌊i·ε + 0.5⌋. Both ways of summing
// the equation evaluate this one expression, so they see the same bits.
func avgTerm(i int, e float64) float64 {
	return math.Floor(float64(i)*e + 0.5)
}

// firstReaching returns the first level i < k whose Eq. 14 term reaches
// j ≥ 1, given that t(k−1) ≥ j (so e > 0). The real-valued boundary
// ⌈(j−½)/e⌉ is the guess; the float terms it is corrected against are
// monotone in i, so the walk ends within a step or two of it.
func firstReaching(e float64, k, j int) int {
	fj := float64(j)
	i := k - 1
	if q := math.Ceil((fj - 0.5) / e); q < float64(k-1) {
		i = int(q)
	}
	for i > 0 && avgTerm(i-1, e) >= fj {
		i--
	}
	for avgTerm(i, e) < fj {
		i++
	}
	return i
}

// AvgErrorRate is the average digital deviation normalized to the full
// scale, AvgDigitalDeviation / (k−1).
func AvgErrorRate(eps float64, k int) float64 {
	if k < 2 {
		return 0
	}
	return AvgDigitalDeviation(eps, k) / float64(k-1)
}

// Propagate implements the multi-layer propagation rule of Eq. 15: a digital
// error rate δ1 arriving from the previous layer combines with the current
// layer's analog computing error ε2 into (1+δ1)(1+ε2) − 1, the worst-case
// bound on the compounded deviation.
func Propagate(delta1, eps2 float64) float64 {
	return (1+math.Abs(delta1))*(1+math.Abs(eps2)) - 1
}

// LayerReport summarises the accuracy estimate of one neuromorphic layer.
type LayerReport struct {
	// Eps is the merged analog voltage error rate of this layer's crossbars.
	Eps VoltageError
	// InDelta is the digital error rate inherited from the previous layer.
	InDelta float64
	// WorstRate and AvgRate are the layer's output digital error rates
	// (Eq. 13 and Eq. 14 normalized), after propagation.
	WorstRate float64
	AvgRate   float64
	// MaxDeviationLSB is the worst-case read deviation in LSBs (Eq. 12).
	MaxDeviationLSB int
}

// LayerError is the merged analog voltage error rate of a rows×cols
// weight matrix mapped onto crossbars of parameters p: the error of one
// block (BlockParams) merged over the row blocks the adder tree sums.
func LayerError(p crossbar.Params, rows, cols int) (VoltageError, error) {
	if rows <= 0 || cols <= 0 {
		return VoltageError{}, fmt.Errorf("accuracy: invalid layer shape %dx%d", rows, cols)
	}
	e, err := Eval(BlockParams(p, rows, cols))
	if err != nil {
		return VoltageError{}, err
	}
	return Merged(e, RowBlocks(p, rows)), nil
}

// BlockParams returns the parameters of one crossbar block of a rows×cols
// layer: a layer larger than one crossbar is tiled, and the per-crossbar
// block sizes bound the error.
func BlockParams(p crossbar.Params, rows, cols int) crossbar.Params {
	if rows < p.Rows {
		p.Rows = rows
	}
	if cols < p.Cols {
		p.Cols = cols
	}
	return p
}

// RowBlocks is the number of crossbar row blocks a layer of the given row
// count tiles into, whose results the adder tree merges.
func RowBlocks(p crossbar.Params, rows int) int {
	return (rows + p.Rows - 1) / p.Rows
}

// EvalLayer estimates one layer mapped onto crossbars of the given
// parameters: rows×cols is the weight-matrix shape, k the read-circuit
// quantization level count (2^ADC bits), and inDelta the digital error rate
// arriving from the previous layer (0 for the first layer).
func EvalLayer(p crossbar.Params, rows, cols, k int, inDelta float64) (LayerReport, error) {
	merged, err := LayerError(p, rows, cols)
	if err != nil {
		return LayerReport{}, err
	}
	return layerReport(merged, k, inDelta, inDelta), nil
}

// layerReport finishes a layer's report from its merged analog error:
// the average path propagates avgIn and the worst path worstIn (Eq. 15),
// then each is quantized (Eq. 12–14).
func layerReport(merged VoltageError, k int, avgIn, worstIn float64) LayerReport {
	worstEps := Propagate(worstIn, merged.Worst)
	return LayerReport{
		Eps:             merged,
		InDelta:         avgIn,
		WorstRate:       MaxErrorRate(worstEps, k),
		AvgRate:         AvgErrorRate(Propagate(avgIn, merged.Avg), k),
		MaxDeviationLSB: MaxDigitalDeviation(worstEps, k),
	}
}

// EvalNetwork chains the layer model across a multi-layer network, feeding
// each layer's average digital error rate into the next (the propagation
// model of Section VI.C); worst-case rates compound through the same rule
// on their own path. Shapes is a list of (rows, cols) weight shapes; the
// return is the per-layer report list and the final output error rates.
func EvalNetwork(p crossbar.Params, shapes [][2]int, k int) ([]LayerReport, VoltageError, error) {
	if len(shapes) == 0 {
		return nil, VoltageError{}, fmt.Errorf("accuracy: empty network")
	}
	var reports []LayerReport
	deltaAvg, deltaWorst := 0.0, 0.0
	for i, s := range shapes {
		merged, err := LayerError(p, s[0], s[1])
		if err != nil {
			return nil, VoltageError{}, fmt.Errorf("layer %d: %w", i, err)
		}
		rep := layerReport(merged, k, deltaAvg, deltaWorst)
		reports = append(reports, rep)
		deltaAvg = rep.AvgRate
		deltaWorst = rep.WorstRate
	}
	return reports, VoltageError{Worst: deltaWorst, Avg: deltaAvg}, nil
}
