package arch

import (
	"context"
	"fmt"

	"mnsim/internal/periph"
)

// Accelerator is the top hierarchy level (Section III.A, Fig. 1b): the
// input interface, one computation bank per neuromorphic layer, and the
// output interface. Multi-layer accelerators are pipelined, so throughput
// is set by the slowest bank while a single sample's latency is the sum of
// the stages (Section IV.A).
type Accelerator struct {
	Design *Design
	Banks  []*Bank
	// InIface and OutIface are the accelerator interface modules buffering
	// a full sample over the limited bus lines.
	InIface, OutIface periph.Perf

	errWorst, errAvg float64 // the plan's error chain

	// Storage a plan fills and Plan.Into reuses: the per-parallelism design
	// copy Design points at, and the units and banks Banks points into.
	design Design
	units  []Unit
	banks  []Bank
}

// NewAccelerator builds the module tree for the given layer stack, mirroring
// the recursive generation of the software flow (Fig. 3). interfaceLines is
// the paper's Interface_Number pair. It is NewPlan followed by the plan's
// build at d's parallelism.
func NewAccelerator(d *Design, layers []LayerDims, interfaceLines [2]int) (*Accelerator, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	pl, err := NewPlan(d, layers, interfaceLines)
	if err != nil {
		return nil, err
	}
	a := new(Accelerator)
	if err := pl.fill(a, d); err != nil {
		return nil, err
	}
	return a, nil
}

// Report is the accelerator-level performance summary printed by the
// simulator — the metric set of the paper's case-study tables.
type Report struct {
	// AreaMM2 is the total layout area in mm².
	AreaMM2 float64
	// EnergyPerSample is the dynamic energy of one input sample in joules.
	EnergyPerSample float64
	// SampleLatency is one sample's end-to-end latency in seconds.
	SampleLatency float64
	// PipelineCycle is the pipelined per-sample interval (the slowest
	// bank's pass latency) in seconds.
	PipelineCycle float64
	// Power is the average power at full pipeline utilisation in watts.
	Power float64
	// ErrorWorst and ErrorAvg are the final-layer digital error rates from
	// the behaviour-level accuracy model.
	ErrorWorst, ErrorAvg float64
}

// Evaluate aggregates the accelerator's performance bottom-up and reports
// the layer-by-layer accuracy propagation (Eq. 15) its plan computed. It is
// EvaluateContext with a background context.
func (a *Accelerator) Evaluate() (Report, error) {
	return a.EvaluateContext(context.Background())
}

// EvaluateContext is Evaluate with a caller-supplied context: a cancelled
// context aborts the evaluation between banks with a wrapped ctx.Err(). It
// is plain arithmetic that records no telemetry; a DSE sweep times it, with
// the accelerator's build, under its candidate span.
//
//lint:hotpath
func (a *Accelerator) EvaluateContext(ctx context.Context) (Report, error) {
	var r Report
	areaUM2 := a.InIface.Area + a.OutIface.Area
	staticPower := a.InIface.StaticPower + a.OutIface.StaticPower
	r.SampleLatency = a.InIface.Latency + a.OutIface.Latency
	// Poll the Done channel per bank, as pool.Run does: a non-blocking
	// receive takes no lock, while ctx.Err takes the context's mutex.
	done := ctx.Done()
	for _, b := range a.Banks {
		select {
		case <-done:
			return Report{}, fmt.Errorf("arch: evaluation aborted: %w", ctx.Err())
		default:
		}
		areaUM2 += b.PassPerf.Area
		staticPower += b.PassPerf.StaticPower
		r.EnergyPerSample += b.SampleEnergy
		r.SampleLatency += b.SampleLatency
		if b.PassPerf.Latency > r.PipelineCycle {
			r.PipelineCycle = b.PassPerf.Latency
		}
	}
	r.EnergyPerSample += a.InIface.DynamicEnergy + a.OutIface.DynamicEnergy
	r.AreaMM2 = areaUM2 * 1e-6
	r.Power = a.pipelineDynPower(r.PipelineCycle) + staticPower
	r.ErrorWorst = a.errWorst
	r.ErrorAvg = a.errAvg
	return r, nil
}

// pipelineDynPower sums the banks' dynamic power at full pipeline
// utilisation, where every bank runs one pass per pipeline cycle.
func (a *Accelerator) pipelineDynPower(cycle float64) float64 {
	p := 0.0
	for _, b := range a.Banks {
		p += b.PassPerf.DynamicEnergy / cycle
	}
	return p
}

// TotalCrossbars returns the physical crossbar count of the accelerator.
func (a *Accelerator) TotalCrossbars() int {
	total := 0
	for _, b := range a.Banks {
		total += b.Units * b.Design.CrossbarsPerUnit()
	}
	return total
}

// TotalUnits returns the computation-unit count.
func (a *Accelerator) TotalUnits() int {
	total := 0
	for _, b := range a.Banks {
		total += b.Units
	}
	return total
}
