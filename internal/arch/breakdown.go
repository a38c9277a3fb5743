package arch

import (
	"sort"

	"mnsim/internal/periph"
)

// ModuleClass names one class of circuit module in a breakdown.
type ModuleClass string

// Breakdown module classes.
const (
	ClassCrossbar ModuleClass = "crossbar"
	ClassDAC      ModuleClass = "dac"
	ClassADC      ModuleClass = "adc"
	ClassDecoder  ModuleClass = "decoder"
	ClassMerge    ModuleClass = "merge" // subtractors, shifters, adder trees
	ClassNeuron   ModuleClass = "neuron"
	ClassBuffer   ModuleClass = "buffer" // pooling/line/output buffers
)

// Breakdown returns the bank's area and per-pass dynamic energy split by
// module class. It composes the modules the bank and its unit were built
// from, so the totals reconcile with PassPerf; the read-circuit share
// reproduces the paper's Section V.C observation that ADCs take about half
// of the area and energy of memristor-based DNNs/CNNs.
func (b *Bank) Breakdown() map[ModuleClass]periph.Perf {
	u := b.Unit
	bp := b.plan
	m := bp.mods
	out := make(map[ModuleClass]periph.Perf, len(Classes()))

	// Crossbar arrays.
	xbar := periph.Perf{
		Area:          m.xbarArea,
		DynamicEnergy: m.xbarPower * (u.FrontLatency + float64(u.Cycles)*u.ReadPassLatency),
	}
	out[ClassCrossbar] = xbar.Scale(b.Units)

	dacs := m.dac.Scale(u.Rows)
	dacs.DynamicEnergy = m.dac.DynamicEnergy * float64(u.Rows)
	out[ClassDAC] = dacs.Scale(b.Units)

	adcs := periph.Perf{
		Area:          u.readPath.Area * float64(u.ReadCircuits*m.nXbar),
		DynamicEnergy: u.readPath.DynamicEnergy * float64(u.ReadCircuits*m.nXbar*u.Cycles),
		StaticPower:   u.readPath.StaticPower * float64(u.ReadCircuits*m.nXbar),
	}
	out[ClassADC] = adcs.Scale(b.Units)

	out[ClassDecoder] = m.decoders.Scale(b.Units)

	merge := bp.tree.Scale(maxInt(b.OutputsPerPass, 1))
	if b.Design.WeightPolarity == 2 {
		merge = merge.Plus(m.sub.Scale(u.ReadCircuits * b.Units))
	}
	out[ClassMerge] = merge

	out[ClassNeuron] = m.neuron.Scale(bp.neuronCount)

	buffers := bp.outBuf
	if k := b.Layer.PoolK; k > 1 {
		buffers = buffers.Plus(bp.pool.Scale(maxInt(b.OutputsPerPass/(k*k), 1)))
		buffers = buffers.Plus(bp.poolBuf.Scale(maxInt(b.OutputsPerPass, 1)))
	}
	out[ClassBuffer] = buffers
	return out
}

// Classes lists the breakdown classes in presentation order.
func Classes() []ModuleClass {
	return []ModuleClass{ClassCrossbar, ClassDAC, ClassADC, ClassDecoder, ClassMerge, ClassNeuron, ClassBuffer}
}

// ShareOf returns the class's fraction of the breakdown's total area.
func ShareOf(bd map[ModuleClass]periph.Perf, class ModuleClass) float64 {
	total := 0.0
	for _, p := range bd {
		total += p.Area
	}
	if total == 0 {
		return 0
	}
	return bd[class].Area / total
}

// SortedByArea returns the classes ordered by descending area.
func SortedByArea(bd map[ModuleClass]periph.Perf) []ModuleClass {
	classes := make([]ModuleClass, 0, len(bd))
	for c := range bd {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return bd[classes[i]].Area > bd[classes[j]].Area })
	return classes
}
