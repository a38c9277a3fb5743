// Solve and settle observation: the single place a solve or a settling run
// is turned into spans, metrics, journal events, logs, and failure
// snapshots. The numeric steps in circuit.go only fill Result and
// Diagnostics, and transient.go's only fill a settleOutcome; everything
// the outside world sees about either is derived from those here.
package circuit

import (
	"context"
	"fmt"

	"mnsim/internal/telemetry"
)

// Solver telemetry: per-solve Newton and cumulative CG iteration
// histograms (the quantities behind the paper's Table III timing claims),
// solve and divergence counters, and cost attribution — process-wide
// flop/byte totals plus per-solve per-phase flop histograms, so /metrics
// answers "where does solve cost go" without a journal. Registered at
// package init so every export lists the solver families, observed or not.
var (
	telSolves        = telemetry.GetCounter("mnsim_circuit_solves_total")
	telDiverged      = telemetry.GetCounter("mnsim_circuit_newton_divergence_total")
	telNewtonIters   = telemetry.GetHistogram("mnsim_circuit_newton_iterations", telemetry.LinearBuckets(1, 1, 20))
	telCGIters       = telemetry.GetHistogram("mnsim_circuit_cg_iterations_per_solve", telemetry.ExponentialBuckets(8, 2, 12))
	telZeroWireSolve = telemetry.GetCounter("mnsim_circuit_zero_wire_solves_total")
	telWarmSolves    = telemetry.GetCounter("mnsim_circuit_warm_start_solves_total")
	telPreRefreshes  = telemetry.GetCounter("mnsim_circuit_precond_refreshes_total")
	telSolveFlops    = telemetry.GetCounter("mnsim_solve_flops_total")
	telSolveBytes    = telemetry.GetCounter("mnsim_solve_bytes_total")
	telPhaseAssembly = telemetry.GetHistogram("mnsim_circuit_phase_assembly_flops", telemetry.ExponentialBuckets(1024, 4, 14))
	telPhaseNewton   = telemetry.GetHistogram("mnsim_circuit_phase_newton_update_flops", telemetry.ExponentialBuckets(1024, 4, 14))
	telPhaseCG       = telemetry.GetHistogram("mnsim_circuit_phase_cg_flops", telemetry.ExponentialBuckets(1024, 4, 14))
	telPhasePrecond  = telemetry.GetHistogram("mnsim_circuit_phase_precond_flops", telemetry.ExponentialBuckets(1024, 4, 14))
	telPhaseDiag     = telemetry.GetHistogram("mnsim_circuit_phase_diagnostics_flops", telemetry.ExponentialBuckets(1024, 4, 14))
)

// solveObserver watches one solve from its circuit.solve span. Its
// per-phase sub-spans (assemble / setup / newton) are opened only while the
// journal records: they exist purely for the causal timeline, and the gate
// keeps a plain run's span count (and cost) unchanged.
type solveObserver struct {
	ctx    context.Context
	span   *telemetry.Span
	traced bool
	phase  *telemetry.Span // nil when untraced; End is nil-safe and idempotent
}

// startSolve opens a solve's circuit.solve span, nested under any span
// already open in ctx, and reads the journal switch once for its phase
// sub-spans.
func startSolve(ctx context.Context) solveObserver {
	ctx, sp := telemetry.StartSpan(ctx, "circuit.solve")
	return solveObserver{ctx: ctx, span: sp, traced: telemetry.JournalOn()}
}

// abandon closes the span of a solve that never started: its inputs failed
// validation or its context was already done. Nothing else is recorded.
func (o *solveObserver) abandon() { o.span.End() }

func (o *solveObserver) startPhase(name string) {
	if o.traced {
		_, o.phase = telemetry.StartSpan(o.ctx, name)
	}
}

func (o *solveObserver) endPhase() { o.phase.End() }

// finish observes a finished solve — success, divergence, CG failure, or
// cancellation alike — and passes its outcome through. A journaled solve
// is one solve_end event: the solve's inputs, its outcome and its whole
// Diagnostics under "diag", so a failed solve still records the Newton
// steps it completed.
func (o *solveObserver) finish(c *Crossbar, vin []float64, opt SolveOptions, res *Result, diag *Diagnostics, err error) (*Result, error) {
	jid := ""
	if telemetry.JournalOn() {
		jid = nextSolveID("solve")
	}
	o.endPhase()
	if diag.Path == pathZeroWire {
		telZeroWireSolve.Inc()
	}
	if diag.WarmStart {
		telWarmSolves.Inc()
	}
	telPreRefreshes.Add(int64(diag.PrecondRefreshes))
	snapPath := ""
	// The numeric steps return a divergence unwrapped.
	de, _ := err.(*DivergenceError)
	if de != nil {
		telDiverged.Inc()
		telemetry.Log().Warn("newton iteration diverged",
			"size", fmt.Sprintf("%dx%d", c.M, c.N), "max_newton", opt.MaxNewton, "tol", opt.Tol)
		if jid != "" {
			snap := c.NewSnapshot(vin, opt, nil, err)
			if diag.WarmStart {
				// Record the warm-start vector the trajectory began from (a
				// diverged solve leaves the state untouched), so a replay
				// reproduces it bit-identically.
				snap.WarmV = opt.State.WarmV()
			}
			snapPath = saveSnapshot("divergence", snap)
		}
	}
	// solve_end is emitted after the span closes so it can carry the
	// span's duration.
	dur := o.span.End()
	if res != nil {
		telSolves.Inc()
		telNewtonIters.Observe(float64(res.NewtonIters))
		telCGIters.Observe(float64(res.CGIters))
	}
	// Cost analytics come from a result or a divergence only.
	if res != nil || de != nil {
		total := diag.Cost.Total()
		telSolveFlops.Add(total.Flops)
		telSolveBytes.Add(total.Bytes)
		telPhaseAssembly.Observe(float64(diag.Cost.Assembly.Flops))
		telPhaseNewton.Observe(float64(diag.Cost.NewtonUpdate.Flops))
		telPhaseCG.Observe(float64(diag.Cost.CGLoop.Flops))
		telPhasePrecond.Observe(float64(diag.Cost.Precond.Flops))
		telPhaseDiag.Observe(float64(diag.Cost.Diagnostics.Flops))
	}
	if jid == "" {
		return res, err
	}
	data := map[string]any{
		"m": c.M, "n": c.N, "wire_r": c.WireR, "rsense": c.RSense,
		"linear": c.Linear, "tol": opt.Tol, "max_newton": opt.MaxNewton,
		"cg_tol": opt.CGTol, "ok": err == nil, "dur_us": float64(dur.Nanoseconds()) / 1e3,
		"diag": diag.JSONSafe(),
	}
	if res != nil {
		data["newton_iters"] = res.NewtonIters
		data["cg_iters"] = res.CGIters
	}
	if err != nil {
		data["err"] = err.Error()
	}
	if snapPath != "" {
		data["snapshot"] = snapPath
	}
	telemetry.EmitEventCtx(o.ctx, telemetry.EvSolveEnd, jid, data)
	return res, err
}

// settleObserver watches one settling run. Its journal ID is drawn once,
// before the run: a run that starts unjournaled journals nothing, even if
// the journal opens while it integrates.
type settleObserver struct {
	jid string
}

func startSettle() settleObserver {
	if telemetry.JournalOn() {
		return settleObserver{jid: nextSolveID("transient")}
	}
	return settleObserver{}
}

// finish observes a finished settling run and passes its outcome through.
// A journaled run that settles or runs out of steps is one
// transient_settle event; a run out of steps also writes a snapshot of
// itself. Other failures journal nothing.
func (o settleObserver) finish(c *Crossbar, vin []float64, out settleOutcome, err error) (float64, error) {
	if o.jid == "" {
		return out.settle, err
	}
	var data map[string]any
	// The numeric run returns a non-settle unwrapped.
	nerr, notSettled := err.(*NotSettledError)
	switch {
	case err == nil:
		data = map[string]any{
			"ok": true, "steps": out.steps, "settle_seconds": out.settle, "dt": out.opt.Dt,
			"cg_iters": out.cgIters,
		}
	case notSettled:
		data = map[string]any{
			"ok": false, "steps": out.steps, "cg_iters": out.cgIters,
			"last_max_dv": jsonFinite(out.lastMaxDV), "err": nerr.Error(),
		}
		if path := saveSnapshot("transient", c.newTransientSnapshot(vin, out, nerr)); path != "" {
			data["snapshot"] = path
		}
	default:
		return out.settle, err
	}
	telemetry.EmitEvent(telemetry.EvTransientSettle, o.jid, data)
	return out.settle, err
}
