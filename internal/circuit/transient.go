package circuit

import (
	"context"
	"fmt"
	"math"

	"mnsim/internal/linalg"
)

// TransientOptions tunes SettleTime.
type TransientOptions struct {
	// NodeCap is the wire capacitance attached to every internal node in
	// farads (one segment's worth per node).
	NodeCap float64
	// CellCap is the additional parasitic capacitance each cell presents to
	// its column node (device.Model.CellCap); rows are driven by stiff
	// sources, so the cell capacitance appears at the column side.
	CellCap float64
	// SettleFrac is the convergence criterion: settled when every output is
	// within SettleFrac of its final DC value. Default 1/512 (half an LSB
	// at 8 bits).
	SettleFrac float64
	// Dt is the backward-Euler step; the default resolves the dominant
	// output pole, RSense·M·(NodeCap+CellCap)/50 — fifty steps per
	// worst-case column time constant (the sense resistor driving all M
	// column-node capacitances) — with a floor of 1 fs.
	Dt float64
	// MaxSteps bounds the integration; default 100000.
	MaxSteps int
	// State, when non-nil, lends the run its assembly, block
	// preconditioner and CG scratch (the same contract as
	// SolveOptions.State). The run never reads or writes the state's warm
	// point, and its settle time is bit-identical to a run without one.
	State *SolverState `json:"-"`
}

// SettleTime measures the crossbar's output settling latency by transient
// (backward-Euler) simulation of the full RC network — the circuit-level
// latency reference the behavioural Elmore model is validated against
// (Table II). Cells are linearised at their calibrated resistance, which is
// accurate for settling behaviour since the non-linear deviation is a
// small-signal effect at the operating point.
//
// The grid starts discharged (all nodes at 0 V) and the inputs step to vin
// at t = 0; the returned time is when every column output has come within
// SettleFrac of its DC value. It is SettleTimeContext with a background
// context.
func (c *Crossbar) SettleTime(vin []float64, opt TransientOptions) (float64, error) {
	return c.SettleTimeContext(context.Background(), vin, opt)
}

// SettleTimeContext is SettleTime with a caller-supplied context: ctx is
// checked before the setup and before every backward-Euler step,
// and a cancelled run returns an error wrapping ctx.Err().
//
// After the setup (assembly, preconditioner, DC target, stepping matrix)
// the stepping loop allocates nothing: every step's CG shares one CGWork.
// The settling run itself is plain numerics (settle); its observer
// (settleObserver.finish) journals the outcome.
func (c *Crossbar) SettleTimeContext(ctx context.Context, vin []float64, opt TransientOptions) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if len(vin) != c.M {
		return 0, fmt.Errorf("circuit: input vector length %d, want %d", len(vin), c.M)
	}
	if c.WireR == 0 {
		return 0, fmt.Errorf("circuit: transient needs a resistive wire model")
	}
	if opt.NodeCap <= 0 {
		return 0, fmt.Errorf("circuit: node capacitance must be positive")
	}
	if opt.SettleFrac <= 0 {
		opt.SettleFrac = 1.0 / 512
	}
	if opt.Dt <= 0 {
		// Resolve the dominant pole (≤ R_s · column capacitance) with ~50
		// steps per time constant.
		opt.Dt = c.RSense * float64(c.M) * (opt.NodeCap + opt.CellCap) / 50
		if opt.Dt < 1e-15 {
			opt.Dt = 1e-15
		}
	}
	if opt.MaxSteps <= 0 {
		opt.MaxSteps = 100000
	}
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("circuit: transient: %w", err)
	}
	o := startSettle(ctx)
	out, err := c.settle(ctx, vin, opt)
	return o.finish(c, vin, out, err)
}

// settleOutcome is what one settling run found: the settle time (zero
// unless it settled), the steps integrated, their CG iterations in total,
// the worst remaining output deviation from the DC target at the last
// step, and the resolved options the run used.
type settleOutcome struct {
	settle    float64
	steps     int
	cgIters   int
	lastMaxDV float64
	opt       TransientOptions
}

// settle integrates the RC network from a discharged start until every
// output is within opt.SettleFrac of its DC value, with opt resolved. A run
// that exhausts opt.MaxSteps returns a *NotSettledError.
func (c *Crossbar) settle(ctx context.Context, vin []float64, opt TransientOptions) (settleOutcome, error) {
	out := settleOutcome{opt: opt}
	// The linear (calibrated) conductance matrix shares the crossbar's
	// wire-chain structure, so the block preconditioner serves both the DC
	// target solve and — after a refresh against the capacitance-augmented
	// matrix, which only adds to the same diagonal — every backward-Euler
	// step.
	a, pre, err := opt.State.prepare(c, vin, nil, nil)
	if err != nil {
		return out, fmt.Errorf("circuit: preconditioner: %w", err)
	}
	op := a.op
	// Every solve of the run, the DC target's included, shares one CGWork;
	// each step's solution aliases it, and the ping-pong keeps the
	// previous step's v valid as the next step's warm start. Each
	// right-hand side is built in the work's residual buffer.
	work := opt.State.cgWork()
	n2 := op.Len()
	// DC target for the settling criterion: only the outputs are read.
	dc, _, err := linalg.SolveCG(op, c.sources(a, work.RHS(n2), nil), nil, linalg.CGOptions{Tol: 1e-10, Precond: pre, Work: work})
	if err != nil {
		return out, fmt.Errorf("circuit: DC solve: %w", err)
	}
	final := c.extractVOut(dc)
	// Backward Euler: (G + C/dt)·v_{t+dt} = C/dt·v_t + b. The DC target is
	// solved, so G itself is no longer needed: shift its diagonal by C/dt,
	// added after every stamped term. C/dt takes two values: the wire
	// capacitance's on the row nodes, and with the cell capacitance on the
	// column nodes (the second half of the node numbering).
	rowCapDt, colCapDt := opt.NodeCap/opt.Dt, (opt.NodeCap+opt.CellCap)/opt.Dt
	half := c.M * c.N
	op.SetDiagShift(rowCapDt, colCapDt)
	// The stepping matrix is constant, so one refresh preconditions every
	// step of the integration.
	if err := pre.Refresh(op, nil); err != nil {
		return out, fmt.Errorf("circuit: preconditioner: %w", err)
	}
	// The DC solution's buffer, cleared, is the discharged start.
	v := dc
	clear(v)
	// settled also records the worst remaining output deviation in volts,
	// so a non-settle failure can say how far from done it still was.
	settled := func() bool {
		ok := true
		worst := 0.0
		for n, f := range final {
			d := math.Abs(v[c.colNode(c.M-1, n)] - f)
			if d > worst {
				worst = d
			}
			if d > opt.SettleFrac*math.Max(math.Abs(f), 1e-12) {
				ok = false
			}
		}
		out.lastMaxDV = worst
		return ok
	}
	for step := 1; step <= opt.MaxSteps; step++ {
		if err := ctx.Err(); err != nil {
			return out, fmt.Errorf("circuit: transient step %d: %w", step, err)
		}
		rhs := c.sources(a, work.RHS(n2), nil)
		rhsRow, rhsCol := rhs[:half], rhs[half:]
		for i := range rhsRow {
			rhsRow[i] += rowCapDt * v[i]
		}
		for i := range rhsCol {
			rhsCol[i] += colCapDt * v[half+i]
		}
		var it int
		v, it, err = linalg.SolveCG(op, rhs, v, linalg.CGOptions{Tol: 1e-9, Precond: pre, Work: work})
		if err != nil {
			return out, fmt.Errorf("circuit: transient step %d: %w", step, err)
		}
		out.steps = step
		out.cgIters += it
		if settled() {
			out.settle = float64(step) * opt.Dt
			return out, nil
		}
	}
	return out, &NotSettledError{Steps: opt.MaxSteps, LastMaxDV: out.lastMaxDV}
}
