package arch

import (
	"mnsim/internal/crossbar"
	"mnsim/internal/periph"
)

// Unit is one Computation Unit (Section III.C, Fig. 1d): one or two
// memristor crossbars with their address decoders, input peripheral
// circuit (DACs and transfer gates), and read circuits (ADCs, column MUXes,
// and the optional subtractors for signed weights).
type Unit struct {
	Design *Design
	// Rows and Cols are the logical weight-block shape handled by this unit
	// (≤ CrossbarSize on each axis).
	Rows, Cols int
	// PhysCols is the number of physical crossbar columns in use:
	// Cols × CellsPerWeight.
	PhysCols int
	// ReadCircuits is the resolved parallelism degree p.
	ReadCircuits int
	// Cycles is ⌈PhysCols / p⌉ — the sequential read passes per compute.
	Cycles int
	// Xbar is the behavioural crossbar model of one physical crossbar,
	// shared by the units built from one plan.
	Xbar *crossbar.Params

	// Compute is the per-COMPUTE-operation performance of the whole unit;
	// Area and StaticPower cover the unit, DynamicEnergy and Latency cover
	// one full matrix-vector multiplication over all columns.
	Compute periph.Perf
	// FrontLatency (decode + DAC + crossbar settle), ReadPassLatency (one
	// MUX+ADC pass), and MergeLatency (subtract / shift-add) break the
	// compute latency into the stages the inner-layer pipeline registers:
	// Compute.Latency = FrontLatency + Cycles·ReadPassLatency + MergeLatency.
	FrontLatency, ReadPassLatency, MergeLatency float64
	// ReadOp and WriteOp are the per-cell memory-operation performances
	// used by the instruction model.
	ReadOp, WriteOp periph.Perf

	readPath periph.Perf // one MUX+ADC read path, for Breakdown
}

// build assembles the unit of design d for a rows×cols weight block from the
// design's shared modules, doing the arithmetic that depends on the read
// parallelism. It overwrites every field, so a unit reused across builds
// keeps nothing of the previous one. The fields are assigned one by one: a
// composite literal would be built in a temporary and block-copied over the
// unit on every build.
//
//lint:hotpath
func (u *Unit) build(d *Design, m *modules, rows, cols int) error {
	physCols := cols * d.CellsPerWeight()
	u.Design = d
	u.Rows, u.Cols = rows, cols
	u.PhysCols = physCols
	u.Xbar = &m.xbar
	u.ReadCircuits = d.EffectiveParallelism(physCols)
	u.Cycles = (physCols + u.ReadCircuits - 1) / u.ReadCircuits

	n := d.CMOS
	nXbar := m.nXbar
	dacs := m.dac.Scale(rows)

	// Read circuits: the column MUX ahead of each ADC and the counter
	// sequencing the Cycles read passes.
	mux, err := periph.Mux(n, u.Cycles, 1)
	if err != nil {
		return err
	}
	ctr, err := periph.Counter(n, bitsFor(u.Cycles))
	if err != nil {
		return err
	}
	u.readPath = periph.Sum(mux, m.adc)
	readCircuits := u.readPath.Scale(u.ReadCircuits * nXbar)

	// Signed-weight and bit-slice merging, one per read circuit.
	var merge periph.Perf
	if d.WeightPolarity == 2 {
		merge = m.sub.Scale(u.ReadCircuits)
	}
	if d.BitSlices() > 1 {
		merge = merge.Plus(m.slices.Scale(u.ReadCircuits))
	}

	// Assemble one COMPUTE: decode, drive, settle, then Cycles sequential
	// read passes, then merge. The crossbar conducts (and burns analog
	// power) for the whole settle-plus-read window; every read circuit
	// converts once per pass.
	u.Compute = periph.Perf{
		Area: m.xbarArea + dacs.Area + m.decoders.Area + readCircuits.Area +
			merge.Area + ctr.Area,
		StaticPower: dacs.StaticPower + m.decoders.StaticPower +
			readCircuits.StaticPower + merge.StaticPower + ctr.StaticPower,
	}
	u.FrontLatency = m.rowDec.Latency + dacs.Latency + m.xbarSettle
	u.ReadPassLatency = u.readPath.Latency
	u.MergeLatency = merge.Latency
	u.Compute.Latency = u.FrontLatency +
		float64(u.Cycles)*u.ReadPassLatency + u.MergeLatency
	u.Compute.DynamicEnergy = m.rowDec.DynamicEnergy + dacs.DynamicEnergy*float64(rows) +
		m.xbarPower*(m.xbarSettle+float64(u.Cycles)*u.readPath.Latency) +
		u.readPath.DynamicEnergy*float64(u.ReadCircuits*nXbar*u.Cycles) +
		merge.DynamicEnergy + ctr.DynamicEnergy*float64(u.Cycles)

	u.ReadOp, u.WriteOp = m.readOp, m.writeOp
	u.ReadOp.Area, u.ReadOp.StaticPower = u.Compute.Area, u.Compute.StaticPower
	u.WriteOp.Area, u.WriteOp.StaticPower = u.Compute.Area, u.Compute.StaticPower
	return nil
}

func bitsFor(v int) int {
	b := 1
	for 1<<uint(b) < v {
		b++
	}
	return b
}
