// Package circuit is MNSIM-Go's circuit-level reference simulator — the
// stand-in for the SPICE baseline the paper validates against and times
// (Tables II–III, Fig. 5).
//
// It solves the full M×N memristor crossbar as a resistor network by
// modified nodal analysis (MNA): every cell input and output node is an
// unknown ([MN + MN] voltages, the "more than MN + M(N-1) voltage variables"
// of Section VI), wire segments between neighbouring cells carry the
// interconnect resistance r, every column terminates in a sensing resistor
// R_s, and each memristor follows the non-linear sinh I–V law of the device
// model. The non-linear system is solved with Newton–Raphson over a
// block-Jacobi-preconditioned conjugate-gradient linear core (the
// conductance matrix is symmetric positive definite).
//
// The package can also emit the crossbar as a SPICE netlist (Section IV.A:
// "MNSIM can generate the netlist file for circuit-level simulators like
// SPICE").
package circuit

import (
	"context"
	"errors"
	"fmt"
	"math"

	"mnsim/internal/device"
	"mnsim/internal/linalg"
)

// deviceEvalFlops is the modeled flop cost of one transcendental device
// I–V evaluation (one exponential giving a sinh/cosh pair, plus scaling);
// the exact kernel counts elsewhere in the cost model are unaffected by
// this constant.
const deviceEvalFlops = 8

// Crossbar describes one crossbar instance to simulate at circuit level.
type Crossbar struct {
	// M is the number of rows (inputs), N the number of columns (outputs).
	M, N int
	// R holds the calibrated (programmed) resistance of each cell in ohms,
	// indexed [row][col].
	R [][]float64
	// WireR is the interconnect resistance of one wire segment between
	// neighbouring cells, in ohms.
	WireR float64
	// RSense is the column sensing (load) resistance in ohms.
	RSense float64
	// Dev supplies the non-linear I–V law. Linear selects ideal resistors
	// instead (used to isolate the interconnect contribution).
	Dev device.Model
	// Linear, when true, treats every cell as an ideal resistor at its
	// calibrated value, skipping Newton iteration.
	Linear bool
}

// Validate checks structural consistency and that every resistance is a
// finite number in its range: NaN or ±Inf would reach the solver as a
// misleading preconditioner failure, or solve silently with open cells.
func (c *Crossbar) Validate() error {
	if c.M <= 0 || c.N <= 0 {
		return fmt.Errorf("circuit: invalid crossbar size %dx%d", c.M, c.N)
	}
	if len(c.R) != c.M {
		return fmt.Errorf("circuit: R has %d rows, want %d", len(c.R), c.M)
	}
	for i, row := range c.R {
		if len(row) != c.N {
			return fmt.Errorf("circuit: R row %d has %d cols, want %d", i, len(row), c.N)
		}
		for j, r := range row {
			if !(r > 0) || math.IsInf(r, 1) {
				return fmt.Errorf("circuit: resistance %g at (%d,%d) must be positive and finite", r, i, j)
			}
		}
	}
	if !(c.WireR >= 0) || math.IsInf(c.WireR, 1) {
		return fmt.Errorf("circuit: wire resistance %g must be non-negative and finite", c.WireR)
	}
	if !(c.RSense > 0) || math.IsInf(c.RSense, 1) {
		return fmt.Errorf("circuit: sense resistance %g must be positive and finite", c.RSense)
	}
	if !c.Linear {
		if err := c.Dev.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Result is the DC operating point of one crossbar solve.
type Result struct {
	// VOut is the voltage across each column's sensing resistor.
	VOut []float64
	// Power is the total power delivered by the input sources in watts.
	Power float64
	// NewtonIters is the number of Newton iterations performed (1 for a
	// linear solve).
	NewtonIters int
	// CGIters is the cumulative number of conjugate-gradient iterations.
	CGIters int
	// NodeV holds all node voltages (row nodes then column nodes) for
	// callers that need cell operating points. A solve through a
	// SolverState returns the state's stored operating point here, valid
	// until the next solve through that state; copy it to keep it longer.
	NodeV []float64
	// Diag is the solve's numerical diagnostics: solver path, per-Newton
	// residual/CG trajectory, and (with SolveOptions.Diagnostics) the
	// Jacobian condition estimate.
	Diag *Diagnostics
}

// node numbering, linalg.CrossbarOp's: row cell nodes first, then column
// cell nodes, so cell m·N+n's row node is m·N+n.
func (c *Crossbar) rowNode(m, n int) int { return m*c.N + n }
func (c *Crossbar) colNode(m, n int) int { return c.M*c.N + m*c.N + n }

// wireG returns the conductance of one wire segment. Zero wire resistance
// never reaches this path: Solve dispatches it to the collapsed-node solver
// (solveZeroWire) to keep the MNA matrix well conditioned.
func (c *Crossbar) wireG() float64 {
	return 1 / c.WireR
}

// solveZeroWire handles the ideal-interconnect limit. With r = 0 every row
// node sits at its source voltage and every column collapses to one node, so
// each column is an independent scalar KCL equation
//
//	Σ_m I_cell(v_m − V_n) = V_n / R_s,
//
// solved by bisection (the left side is strictly decreasing in V_n, the
// right side strictly increasing, so the root is unique).
//
// Cost attribution: the bisection loop is this path's inner solver, so its
// modeled device-evaluation cost lands in CostModel.CGLoop.
func (c *Crossbar) solveZeroWire(ctx context.Context, vin []float64, ops *linalg.OpCount) (*Result, error) {
	res := &Result{
		VOut:        make([]float64, c.N),
		NodeV:       make([]float64, 2*c.M*c.N),
		NewtonIters: 1,
	}
	for m := 0; m < c.M; m++ {
		for n := 0; n < c.N; n++ {
			res.NodeV[c.rowNode(m, n)] = vin[m]
		}
	}
	// Bisection bracket: the column voltage is a conductance-weighted
	// average of the inputs pulled toward ground by the sense resistor, so
	// the root lies in [min(vin, 0), max(vin, 0)]. Bracketing from 0 to
	// max(vin) — the historical bug — collapses the bracket to a point for
	// all-non-positive inputs and silently reports 0 V.
	vmin, vmax := 0.0, 0.0
	for _, v := range vin {
		if v > vmax {
			vmax = v
		}
		if v < vmin {
			vmin = v
		}
	}
	// The bisection makes 100·M·N device calls, so sinh(Vread/Vc) is
	// hoisted; each call keeps Model.Current's bits, the conversion
	// rounding the product as Current's return does, so no fused
	// multiply-add takes it into the sum.
	vr, vc := c.Dev.ReadVoltage, c.Dev.NonlinearVc
	sr := math.Sinh(vr / vc)
	cellI := func(vd, r float64) float64 {
		if c.Linear {
			return vd / r
		}
		return float64(device.CellPrefactor(vr, sr, r) * math.Sinh(vd/vc))
	}
	for n := 0; n < c.N; n++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("circuit: solve aborted: %w", err)
		}
		f := func(v float64) float64 {
			sum := 0.0
			for m := 0; m < c.M; m++ {
				sum += cellI(vin[m]-v, c.R[m][n])
			}
			return sum - v/c.RSense
		}
		lo, hi := vmin, vmax
		for iter := 0; iter < 100; iter++ {
			mid := (lo + hi) / 2
			if f(mid) > 0 {
				lo = mid
			} else {
				hi = mid
			}
		}
		// 100 bisection steps, each evaluating M device currents plus the
		// sense-resistor term.
		ops.CountFlops(100 * (int64(c.M)*(deviceEvalFlops+2) + 3))
		v := (lo + hi) / 2
		res.VOut[n] = v
		for m := 0; m < c.M; m++ {
			res.NodeV[c.colNode(m, n)] = v
		}
	}
	for m := 0; m < c.M; m++ {
		rowI := 0.0
		for n := 0; n < c.N; n++ {
			rowI += cellI(vin[m]-res.VOut[n], c.R[m][n])
		}
		res.Power += vin[m] * rowI
	}
	ops.CountFlops(int64(c.M) * int64(c.N) * (deviceEvalFlops + 3))
	return res, nil
}

// assembly holds the crossbar's MNA operator and its source currents.
type assembly struct {
	op *linalg.CrossbarOp
	// src[m] is row m's source current gw·vin[m], injected at row node
	// (m, 0); constant across iterations.
	src []float64
}

// assemble allocates the operator and stamps it at the calibrated cell
// conductances.
func (c *Crossbar) assemble(vin []float64, ops *linalg.OpCount) *assembly {
	a := &assembly{op: linalg.NewCrossbarOp(c.M, c.N), src: make([]float64, c.M)}
	c.stampValues(a, vin, ops)
	return a
}

// stampValues (re)writes the operator and the source currents from the
// current crossbar parameters and drive vector: wire and sense
// conductances, calibrated cell conductances, and gw·vin. A fresh assembly
// and a SolverState-cached one both fill values here, so the matrix a
// solve starts from is bit-identical either way.
//
// Hot path, must not allocate (all buffers live in the assembly).
//
//lint:hotpath
func (c *Crossbar) stampValues(a *assembly, vin []float64, ops *linalg.OpCount) {
	gw := c.wireG()
	for m := range a.src {
		a.src[m] = gw * vin[m]
	}
	a.op.StampWires(gw, 1/c.RSense)
	// Cells start from the calibrated linear conductance.
	for m := 0; m < c.M; m++ {
		for n := 0; n < c.N; n++ {
			a.op.SetCell(m, n, 1/c.R[m][n])
		}
	}
	// Modeled stamping cost: one conductance inversion per cell; the
	// N + M wire-only sums and the M sources written once; per cell, the
	// conductance write and its two diagonal entries, charged as the
	// writes of a stored diagonal (see linalg's cost model).
	cells := int64(c.M) * int64(c.N)
	ops.CountFlops(cells)
	ops.CountBytes(8*int64(c.N+2*c.M) + 24*cells)
}

// sources writes the source-only right-hand side into rhs, of length
// 2·M·N, and returns it: zero everywhere but the row nodes (m, 0), which
// get 0 + src[m] — the bits of a vector cleared and then stamped. The
// solvers pass their CG work's residual buffer (linalg.CGWork.RHS), which
// the next SolveCG reads as b.
//
//lint:hotpath
func (c *Crossbar) sources(a *assembly, rhs []float64, ops *linalg.OpCount) []float64 {
	clear(rhs)
	for m, s := range a.src {
		rhs[c.rowNode(m, 0)] += s
	}
	// Modeled traffic: the clear, then per source its read and the
	// entry's read and write.
	ops.CountBytes(8*int64(len(rhs)) + 24*int64(len(a.src)))
	return rhs
}

// restamp rewrites the memristor companion-model conductances for the
// current voltage estimate and writes the full right-hand side (source
// terms plus Newton equivalent current sources) into rhs, which it
// returns. sources fully overwrites rhs first, so a reused buffer gives
// the bits of a fresh one.
//
// Each cell costs one fused device evaluation that reproduces
// Model.Conductance and Model.Current bit for bit: the prefactor's
// sinh(Vread/Vc) is evaluated once per restamp, and device.SinhCosh gives
// the cell's sinh and cosh from one exponential. The model's fields are
// read into locals once, never passing the Model struct per cell. The
// float64 conversion rounds amp·sinh as Model.Current's return does, so an
// architecture that fuses multiply-adds cannot contract it into ieq.
//
//lint:hotpath
func (c *Crossbar) restamp(a *assembly, rhs, v []float64, ops *linalg.OpCount) []float64 {
	c.sources(a, rhs, ops)
	vr, vc := c.Dev.ReadVoltage, c.Dev.NonlinearVc
	sr := math.Sinh(vr / vc)
	for m := 0; m < c.M; m++ {
		for n, r := range c.R[m] {
			i, j := c.rowNode(m, n), c.colNode(m, n)
			vd := v[i] - v[j]
			amp := device.CellPrefactor(vr, sr, r)
			sh, ch := device.SinhCosh(vd / vc)
			g := amp / vc * ch            // Model.Conductance
			ieq := float64(amp*sh) - g*vd // Model.Current − g·vd
			a.op.SetCell(m, n, g)
			rhs[i] -= ieq
			rhs[j] += ieq
		}
	}
	// Modeled stamping cost: per cell, one transcendental device
	// evaluation plus five arithmetic ops; traffic is the conductance
	// write, the two diagonal entries (charged as stored-diagonal writes),
	// two node-voltage reads and two RHS updates (sources charges the
	// source-only part).
	cells := int64(c.M) * int64(c.N)
	ops.CountFlops(cells * (deviceEvalFlops + 5))
	ops.CountBytes(cells * (8 + 16 + 48))
	return rhs
}

// SolveOptions tunes the non-linear solve.
type SolveOptions struct {
	// Tol is the Newton convergence threshold on the max node-voltage
	// update in volts; default 1e-9.
	Tol float64
	// MaxNewton bounds Newton iterations; default 50.
	MaxNewton int
	// CGTol is the relative tolerance of each inner linear solve;
	// default 1e-10.
	CGTol float64
	// State, when non-nil, carries reusable solver structures across
	// solves: the operator's buffers, the block preconditioner, the CG
	// scratch, and the previous operating point of the same crossbar
	// (warm start). A state must be used from one strictly sequential
	// solve stream, and Result.NodeV then aliases it; see SolverState.
	State *SolverState `json:"-"`
	// Diagnostics additionally computes the Jacobian condition estimate on
	// successful solves (Diagnostics.CondEstimate); the estimate always
	// runs on divergence. The convergence trajectory itself is recorded
	// regardless — this only gates the extra eigenvalue work.
	Diagnostics bool `json:"diagnostics,omitempty"`
}

// ErrNewtonDiverged is the sentinel a failed Newton solve matches with
// errors.Is; the concrete error is a *DivergenceError carrying the
// iteration budget spent, the final residual, and the full diagnostics
// trajectory (use errors.As to get at it).
var ErrNewtonDiverged = errors.New("circuit: Newton iteration did not converge")

// Solver paths recorded in Diagnostics.Path.
const (
	pathNewtonCG = "newton-cg"
	pathLinearCG = "linear-cg"
	pathZeroWire = "zero-wire-bisection"
)

// Solve computes the DC operating point for the given input voltage vector
// (length M). It is a convenience wrapper over SolveContext with a
// background context.
func (c *Crossbar) Solve(vin []float64, opt SolveOptions) (*Result, error) {
	return c.SolveContext(context.Background(), vin, opt)
}

// SolveContext is Solve with a caller-supplied context: the solve's
// telemetry span nests under any span already open in ctx, so a DSE sweep
// or validation run attributes solver time to the candidate that spent it.
//
// The solve runs in three steps: input validation and option defaults;
// the numeric steps (assemble and precondition, setup CG or warm start,
// the Newton loop), each wrapped in its gated phase span; and the outcome.
// One observer (solveObserver, in observe.go) owns everything else: it
// opens the span and its phases, and finish turns the outcome into
// metrics, journal events, and divergence snapshots.
//
// Cancellation contract: ctx is checked before the solve and before every
// Newton step's linear solve, and per bisection column, so an aborted
// sweep stops burning CPU mid-Newton-loop; the error wraps ctx.Err().
func (c *Crossbar) SolveContext(ctx context.Context, vin []float64, opt SolveOptions) (*Result, error) {
	o := startSolve(ctx)
	opt, err := c.resolveOptions(ctx, vin, opt)
	if err != nil {
		o.abandon()
		return nil, err
	}
	r := &solveRun{c: c, opt: opt, st: opt.State, work: opt.State.cgWork(), diag: &Diagnostics{Path: pathNewtonCG, Cost: &CostModel{}}}
	var res *Result
	switch {
	case c.WireR == 0:
		r.diag.Path = pathZeroWire
		if res, err = c.solveZeroWire(ctx, vin, &r.diag.Cost.CGLoop); res != nil {
			res.Diag = r.diag
		}
	default:
		if c.Linear {
			r.diag.Path = pathLinearCG
		}
		o.startPhase("assemble")
		err = r.assemble(vin)
		o.endPhase()
		if err == nil && !r.warmStart() {
			o.startPhase("setup")
			err = r.setup()
			o.endPhase()
		}
		if err == nil && !c.Linear {
			// The observer closes this span.
			o.startPhase("newton")
			err = r.newton(ctx)
		}
		if err == nil {
			res = r.result(vin)
		}
	}
	return o.finish(c, vin, opt, res, r.diag, err)
}

// resolveOptions validates the inputs, applies the option defaults, and
// honours an already-cancelled context.
func (c *Crossbar) resolveOptions(ctx context.Context, vin []float64, opt SolveOptions) (SolveOptions, error) {
	if err := c.Validate(); err != nil {
		return opt, err
	}
	if len(vin) != c.M {
		return opt, fmt.Errorf("circuit: input vector length %d, want %d", len(vin), c.M)
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-9
	}
	if opt.MaxNewton <= 0 {
		opt.MaxNewton = 50
	}
	if opt.CGTol <= 0 {
		opt.CGTol = 1e-10
	}
	if err := ctx.Err(); err != nil {
		return opt, fmt.Errorf("circuit: solve aborted: %w", err)
	}
	return opt, nil
}

// solveRun is the numeric state one MNA solve threads through its steps:
// plain numerics, with ctx used only for cancellation and no telemetry.
type solveRun struct {
	c    *Crossbar
	opt  SolveOptions
	st   *SolverState
	work *linalg.CGWork // shared by the run's CG calls: the state's, else the run's own
	diag *Diagnostics
	a    *assembly
	pre  *linalg.BlockJacobi
	// v is the current operating point; newtonIters and cgIters are the
	// Result's iteration counts.
	v                    []float64
	newtonIters, cgIters int
	// baseline is the inner CG iteration count of the first solve after
	// the last (re)factorization — the refresh policy's reference point.
	baseline int
}

// assemble builds (or, through a state, restamps) the MNA system and
// factors the block-Jacobi preconditioner from the current calibrated
// matrix. Both are rebuilt from the crossbar at every solve start, so no
// numeric state beyond the warm vector crosses solves. The factorization
// is then frozen across Newton iterations (modified Newton) and refreshed
// only when CG effort regresses.
func (r *solveRun) assemble(vin []float64) error {
	a, pre, err := r.st.prepare(r.c, vin, &r.diag.Cost.Assembly, &r.diag.Cost.Precond)
	if err != nil {
		return fmt.Errorf("circuit: preconditioner: %w", err)
	}
	r.a, r.pre = a, pre
	return nil
}

// warmStart resumes a non-linear solve from the state's previous operating
// point, skipping the setup linear solve; it reports whether it did.
func (r *solveRun) warmStart() bool {
	if r.c.Linear || !r.st.warmFor(r.c) {
		return false
	}
	r.baseline = -1 // no CG call has run against the fresh factorization
	r.v = r.st.warmCopy()
	r.diag.Cost.Assembly.CountBytes(16 * int64(len(r.v)))
	r.diag.WarmStart = true
	return true
}

// setup runs the initial linear solve at calibrated resistances — the whole
// solve in linear mode, where it warm-starts from the state's operating
// point when one fits.
func (r *solveRun) setup() error {
	var x0 []float64
	if r.c.Linear && r.st.warmFor(r.c) {
		x0 = r.st.v
		r.diag.WarmStart = true
	}
	rhs := r.c.sources(r.a, r.work.RHS(r.a.op.Len()), &r.diag.Cost.Assembly)
	v, it, err := linalg.SolveCG(r.a.op, rhs, x0, r.cgOptions())
	if err != nil {
		return fmt.Errorf("circuit: linear solve: %w", err)
	}
	r.v = v
	r.cgIters += it
	r.newtonIters = 1
	r.diag.SetupCGIters = it
	r.baseline = it
	return nil
}

func (r *solveRun) cgOptions() linalg.CGOptions {
	return linalg.CGOptions{Tol: r.opt.CGTol, Ops: &r.diag.Cost.CGLoop, Precond: r.pre, Work: r.work}
}

// newton iterates companion-model restamps and linear solves until the max
// node-voltage update drops below opt.Tol, recording the trajectory in the
// diagnostics; exhausting opt.MaxNewton returns a *DivergenceError.
func (r *solveRun) newton(ctx context.Context) error {
	c, a, diag, cost := r.c, r.a, r.diag, r.diag.Cost
	needRefresh := false
	for iter := 0; iter < r.opt.MaxNewton; iter++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("circuit: Newton iteration aborted: %w", err)
		}
		rhs := c.restamp(a, r.work.RHS(len(r.v)), r.v, &cost.NewtonUpdate)
		if needRefresh {
			// The frozen factorization fell behind the Newton stamps;
			// refactor against the current matrix and re-baseline.
			if err := r.pre.Refresh(a.op, &cost.Precond); err != nil {
				return fmt.Errorf("circuit: preconditioner refresh: %w", err)
			}
			diag.PrecondRefreshes++
			r.baseline = -1
			needRefresh = false
		}
		vNew, it, err := linalg.SolveCG(a.op, rhs, r.v, r.cgOptions())
		if err != nil {
			return fmt.Errorf("circuit: Newton linear solve: %w", err)
		}
		// Deterministic modified-Newton refresh policy: refresh before the
		// next solve when this one needed more than 2·baseline+8
		// iterations — regression past the slack means the frozen
		// factorization stopped pulling its weight.
		if r.baseline < 0 {
			r.baseline = it
		} else if it > 2*r.baseline+8 {
			needRefresh = true
		}
		r.cgIters += it
		r.newtonIters++
		delta := 0.0
		for i := range r.v {
			if d := math.Abs(vNew[i] - r.v[i]); d > delta {
				delta = d
			}
		}
		cost.NewtonUpdate.CountVecOp(len(r.v), 2) // ΔV convergence scan
		r.v = vNew
		diag.Residuals = append(diag.Residuals, delta)
		diag.CGIters = append(diag.CGIters, it)
		if delta < r.opt.Tol {
			return nil
		}
	}
	diag.CondEstimate = JSONFinite(linalg.EstimateCond(a.op, &cost.Diagnostics))
	diag.analyze()
	return &DivergenceError{Iters: r.opt.MaxNewton, FinalResidual: diag.Residuals[len(diag.Residuals)-1], Diag: diag}
}

// result packages the converged operating point and feeds the state: the
// operating point warm-starts the next solve through it.
func (r *solveRun) result(vin []float64) *Result {
	c, diag := r.c, r.diag
	if r.opt.Diagnostics {
		diag.CondEstimate = JSONFinite(linalg.EstimateCond(r.a.op, &diag.Cost.Diagnostics))
	}
	diag.analyze()
	// With a state, v aliases its reusable CG scratch; NodeV is the
	// state's stored copy, valid until the next solve through it.
	return &Result{
		VOut:        c.extractVOut(r.v),
		Power:       c.sourcePower(vin, r.v),
		NewtonIters: r.newtonIters,
		CGIters:     r.cgIters,
		NodeV:       r.st.store(c, r.v),
		Diag:        diag,
	}
}

// extractVOut reads the sense-node voltages of the solved network.
func (c *Crossbar) extractVOut(v []float64) []float64 {
	out := make([]float64, c.N)
	for n := 0; n < c.N; n++ {
		out[n] = v[c.colNode(c.M-1, n)]
	}
	return out
}

// sourcePower sums the power each source delivers driving its row
// through the first wire segment.
func (c *Crossbar) sourcePower(vin, v []float64) float64 {
	gw := c.wireG()
	p := 0.0
	for m := 0; m < c.M; m++ {
		i := gw * (vin[m] - v[c.rowNode(m, 0)])
		p += vin[m] * i
	}
	return p
}

// CellVoltage returns the voltage across cell (m,n) in a solved result.
func (c *Crossbar) CellVoltage(res *Result, m, n int) float64 {
	return res.NodeV[c.rowNode(m, n)] - res.NodeV[c.colNode(m, n)]
}

// DissipatedPower sums the power burned in every element of the solved
// network (wires, cells, sense resistors). For a correct DC solution it
// equals the source power; the solver tests use it as an energy-conservation
// check.
func (c *Crossbar) DissipatedPower(res *Result, vin []float64) float64 {
	p := 0.0
	if c.WireR > 0 {
		gw := c.wireG()
		for m := 0; m < c.M; m++ {
			dv := vin[m] - res.NodeV[c.rowNode(m, 0)]
			p += dv * dv * gw
			for n := 0; n+1 < c.N; n++ {
				dv := res.NodeV[c.rowNode(m, n)] - res.NodeV[c.rowNode(m, n+1)]
				p += dv * dv * gw
			}
		}
		for n := 0; n < c.N; n++ {
			for m := 0; m+1 < c.M; m++ {
				dv := res.NodeV[c.colNode(m, n)] - res.NodeV[c.colNode(m+1, n)]
				p += dv * dv * gw
			}
		}
	}
	for n := 0; n < c.N; n++ {
		vLast := res.NodeV[c.colNode(c.M-1, n)]
		p += vLast * vLast / c.RSense
	}
	// sinh(Vread/Vc) hoisted out of the cell loop; each term keeps
	// Model.Current's bits.
	vr, vc := c.Dev.ReadVoltage, c.Dev.NonlinearVc
	sr := math.Sinh(vr / vc)
	for m := 0; m < c.M; m++ {
		for n, r := range c.R[m] {
			vd := c.CellVoltage(res, m, n)
			if c.Linear {
				p += vd * vd / r
			} else {
				p += vd * (device.CellPrefactor(vr, sr, r) * math.Sinh(vd/vc))
			}
		}
	}
	return p
}

// IdealOut returns the interconnect-free, linear-device output voltages:
// the fixed-point "ideal computation result" of the accuracy model
// (Section VI), V_n = Σ_m g_mn·v_m / (g_s + Σ_m g_mn), the column form of
// Eq. 2.
func (c *Crossbar) IdealOut(vin []float64) ([]float64, error) {
	if len(vin) != c.M {
		return nil, fmt.Errorf("circuit: input vector length %d, want %d", len(vin), c.M)
	}
	gs := 1 / c.RSense
	out := make([]float64, c.N)
	for n := 0; n < c.N; n++ {
		num, den := 0.0, gs
		for m := 0; m < c.M; m++ {
			g := 1 / c.R[m][n]
			num += g * vin[m]
			den += g
		}
		out[n] = num / den
	}
	return out, nil
}
