// Package replay re-runs solver snapshots captured by the flight recorder
// (internal/telemetry journal + internal/circuit snapshots) and checks the
// re-run against the recorded outcome bit for bit. The solver is
// deterministic and encoding/json round-trips float64 exactly, so any
// deviation means the code under test changed behaviour — which makes
// replay both a debugging loupe (verbose per-iteration diagnostics on a
// captured failure) and a regression oracle.
package replay

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"mnsim/internal/circuit"
	"mnsim/internal/linalg"
	"mnsim/internal/telemetry"
)

// ErrMismatch is the sentinel every replay divergence wraps: the re-run
// completed but did not reproduce the recorded outcome bit-identically.
var ErrMismatch = errors.New("replay: outcome mismatch")

func mismatch(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrMismatch, fmt.Sprintf(format, args...))
}

// jsonFinite mirrors the sanitisation the snapshot writer applies to
// non-finite floats, so live values compare equal to their recorded form.
func jsonFinite(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return 0
	case math.IsInf(x, 1):
		return math.MaxFloat64
	case math.IsInf(x, -1):
		return -math.MaxFloat64
	}
	return x
}

// Snapshot re-runs one snapshot and verifies the recorded outcome. The
// human-readable replay report goes to w; verbose additionally prints the
// re-run's per-iteration trajectory. A nil error means the outcome was
// reproduced bit-identically.
func Snapshot(ctx context.Context, s *circuit.Snapshot, w io.Writer, verbose bool) error {
	if err := s.Validate(); err != nil {
		return err
	}
	c := s.Crossbar()
	fmt.Fprintf(w, "replay: %s solve, %dx%d crossbar, wire %g Ω, rsense %g Ω",
		s.Kind, s.M, s.N, s.WireR, s.RSense)
	if s.Tool != "" {
		fmt.Fprintf(w, " (recorded by %s)", s.Tool)
	}
	fmt.Fprintln(w)
	switch s.Kind {
	case "dc":
		return replayDC(ctx, c, s, w, verbose)
	case "transient":
		return replayTransient(ctx, c, s, w, verbose)
	default:
		return fmt.Errorf("replay: unknown snapshot kind %q", s.Kind)
	}
}

func replayDC(ctx context.Context, c *circuit.Crossbar, s *circuit.Snapshot, w io.Writer, verbose bool) error {
	opt := s.Options
	if !s.Outcome.OK {
		// Diagnosing a failure is the point of the replay: always estimate
		// conditioning on the re-run.
		opt.Diagnostics = true
	}
	if s.WarmV != nil {
		// The recorded solve started from a warm operating point; reseed it
		// so the re-run follows the same Newton trajectory bit for bit.
		opt.State = circuit.WarmState(s.WarmV)
	}
	res, err := c.SolveContext(ctx, s.Vin, opt)
	if verbose {
		printDiagnostics(w, res, err)
	}
	if s.Outcome.OK {
		if err != nil {
			return mismatch("recorded success, re-run failed: %v", err)
		}
		if got, want := len(res.VOut), len(s.Outcome.VOut); got != want {
			return mismatch("VOut length %d, recorded %d", got, want)
		}
		for n, v := range res.VOut {
			//lint:ignore nofloateq bit-identical replay is an exact-equality contract by design
			if v != s.Outcome.VOut[n] {
				return mismatch("VOut[%d] = %v, recorded %v (Δ %g)",
					n, v, s.Outcome.VOut[n], v-s.Outcome.VOut[n])
			}
		}
		//lint:ignore nofloateq bit-identical replay is an exact-equality contract by design
		if res.Power != s.Outcome.Power {
			return mismatch("Power = %v, recorded %v", res.Power, s.Outcome.Power)
		}
		if res.NewtonIters != s.Outcome.NewtonIters || res.CGIters != s.Outcome.CGIters {
			return mismatch("iterations %d/%d, recorded %d/%d",
				res.NewtonIters, res.CGIters, s.Outcome.NewtonIters, s.Outcome.CGIters)
		}
		if err := compareDiag(res.Diag, s.Outcome.Diag); err != nil {
			return err
		}
		fmt.Fprintf(w, "replay: OK — Vout bit-identical across %d columns (%d Newton / %d CG iters)\n",
			len(res.VOut), res.NewtonIters, res.CGIters)
		return nil
	}
	if err == nil {
		return mismatch("recorded failure %q, re-run converged", s.Outcome.Err)
	}
	if err.Error() != s.Outcome.Err {
		return mismatch("error %q, recorded %q", err.Error(), s.Outcome.Err)
	}
	var de *circuit.DivergenceError
	if errors.As(err, &de) {
		if de.Iters != s.Outcome.NewtonIters {
			return mismatch("divergence after %d iters, recorded %d", de.Iters, s.Outcome.NewtonIters)
		}
		if err := compareDiag(de.Diag, s.Outcome.Diag); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "replay: OK — failure reproduced bit-identically: %s\n", s.Outcome.Err)
	return nil
}

func replayTransient(ctx context.Context, c *circuit.Crossbar, s *circuit.Snapshot, w io.Writer, verbose bool) error {
	settle, err := c.SettleTimeContext(ctx, s.Vin, *s.Transient)
	if s.Outcome.OK {
		if err != nil {
			return mismatch("recorded settle, re-run failed: %v", err)
		}
		//lint:ignore nofloateq bit-identical replay is an exact-equality contract by design
		if settle != s.Outcome.SettleSeconds {
			return mismatch("settle %v s, recorded %v s", settle, s.Outcome.SettleSeconds)
		}
		fmt.Fprintf(w, "replay: OK — settled in %g s, bit-identical\n", settle)
		return nil
	}
	if err == nil {
		return mismatch("recorded non-settle %q, re-run settled in %g s", s.Outcome.Err, settle)
	}
	if err.Error() != s.Outcome.Err {
		return mismatch("error %q, recorded %q", err.Error(), s.Outcome.Err)
	}
	var ns *circuit.NotSettledError
	if errors.As(err, &ns) {
		if ns.Steps != s.Outcome.Steps {
			return mismatch("budget %d steps, recorded %d", ns.Steps, s.Outcome.Steps)
		}
		//lint:ignore nofloateq bit-identical replay is an exact-equality contract by design
		if jsonFinite(ns.LastMaxDV) != s.Outcome.LastMaxDV {
			return mismatch("last max ΔV %v, recorded %v", ns.LastMaxDV, s.Outcome.LastMaxDV)
		}
		if verbose {
			fmt.Fprintf(w, "  steps %d  remaining max ΔV %.6g V  dt %g s\n",
				ns.Steps, ns.LastMaxDV, s.Transient.Dt)
		}
	}
	fmt.Fprintf(w, "replay: OK — non-settle reproduced bit-identically: %s\n", s.Outcome.Err)
	return nil
}

// compareDiag checks a re-run's Diagnostics — path, iteration counts,
// residual trajectory, preconditioner refreshes, condition estimate, cost
// model — against the recorded ones. Both are compared in their encoded
// form, in which distinct float64 values never print alike, so equal bytes
// mean a bit-identical trajectory. A snapshot without recorded diagnostics
// (schema version 1) skips the check.
func compareDiag(d, recorded *circuit.Diagnostics) error {
	if recorded == nil {
		return nil
	}
	got, err := json.Marshal(d.JSONSafe())
	if err != nil {
		return err
	}
	want, err := json.Marshal(recorded)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return mismatch("diagnostics differ:\n  re-run   %s\n  recorded %s", got, want)
	}
	return nil
}

// printDiagnostics renders the re-run's per-iteration trajectory: the
// verbose loupe the flight recorder exists for.
func printDiagnostics(w io.Writer, res *circuit.Result, err error) {
	var d *circuit.Diagnostics
	if res != nil {
		d = res.Diag
	}
	var de *circuit.DivergenceError
	if errors.As(err, &de) {
		d = de.Diag
	}
	if d == nil {
		return
	}
	fmt.Fprintf(w, "  path %s", d.Path)
	if d.PrecondRefreshes > 0 {
		fmt.Fprintf(w, "  precond refreshes %d", d.PrecondRefreshes)
	}
	if d.WarmStart {
		fmt.Fprint(w, "  warm-start")
	}
	if d.SetupCGIters > 0 {
		fmt.Fprintf(w, "  setup CG iters %d", d.SetupCGIters)
	}
	if d.CondEstimate > 0 {
		fmt.Fprintf(w, "  cond(J) ≈ %.3g", d.CondEstimate)
	}
	fmt.Fprintln(w)
	if c := d.Convergence; c != nil {
		fmt.Fprintf(w, "  decay rate %.4g  cg/newton %.1f", c.DecayRate, c.CGPerNewton)
		if c.Stagnated {
			fmt.Fprint(w, "  STAGNATED")
		}
		fmt.Fprintln(w)
	}
	printCost(w, d.Cost)
	for i, r := range d.Residuals {
		cg := 0
		if i < len(d.CGIters) {
			cg = d.CGIters[i]
		}
		fmt.Fprintf(w, "  newton %2d  max ΔV %.6e V  cg %d\n", i, r, cg)
	}
}

// printCost renders the per-phase cost attribution table.
func printCost(w io.Writer, c *circuit.CostModel) {
	if c == nil {
		return
	}
	total := c.Total()
	if total.Flops == 0 {
		return
	}
	phase := func(name string, o linalg.OpCount) {
		pct := 100 * float64(o.Flops) / float64(total.Flops)
		fmt.Fprintf(w, "  cost %-14s %12d flops (%5.1f%%)  %10d bytes", name, o.Flops, pct, o.Bytes)
		if o.SpMVs > 0 {
			fmt.Fprintf(w, "  spmv %d dot %d axpy %d", o.SpMVs, o.Dots, o.Axpys)
		}
		fmt.Fprintln(w)
	}
	phase("assembly", c.Assembly)
	phase("newton-update", c.NewtonUpdate)
	phase("cg-loop", c.CGLoop)
	phase("precond", c.Precond)
	phase("diagnostics", c.Diagnostics)
	fmt.Fprintf(w, "  cost %-14s %12d flops           %10d bytes\n", "total", total.Flops, total.Bytes)
}

// File replays path — a snapshot .json, or a journal .jsonl whose
// referenced snapshots are each replayed in order. Returns how many
// snapshots were replayed; the error is the first failure (wrapping
// ErrMismatch for reproduction failures).
func File(ctx context.Context, path string, w io.Writer, verbose bool) (int, error) {
	if strings.HasSuffix(path, ".jsonl") {
		events, err := telemetry.ReadJournalFile(path)
		if err != nil {
			return 0, err
		}
		snaps := telemetry.JournalSnapshotPaths(path, events)
		if len(snaps) == 0 {
			return 0, fmt.Errorf("replay: journal %s references no snapshots", path)
		}
		fmt.Fprintf(w, "replay: journal %s — %d events, %d snapshots\n", path, len(events), len(snaps))
		for _, sp := range snaps {
			s, err := circuit.LoadSnapshot(sp)
			if err != nil {
				return 0, err
			}
			fmt.Fprintf(w, "-- %s\n", sp)
			if err := Snapshot(ctx, s, w, verbose); err != nil {
				return 0, err
			}
		}
		return len(snaps), nil
	}
	s, err := circuit.LoadSnapshot(path)
	if err != nil {
		return 0, err
	}
	if err := Snapshot(ctx, s, w, verbose); err != nil {
		return 0, err
	}
	return 1, nil
}
