package circuit

import (
	"encoding/json"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"mnsim/internal/device"
	"mnsim/internal/telemetry"
)

// withTestJournal routes the default journal to a temp file for the test
// and restores the disabled state afterwards.
func withTestJournal(t *testing.T) string {
	t.Helper()
	j := telemetry.DefaultJournal()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := j.Open(path); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		j.Close()
		j.Reset()
	})
	return path
}

func divergentCrossbar() *Crossbar {
	dev := device.RRAM()
	dev.NonlinearVc = 2e-3
	return &Crossbar{M: 2, N: 2, R: uniformR(2, 2, 100e3), WireR: 1, RSense: 1500, Dev: dev}
}

// A diverging solve with the journal enabled must leave a full trail: one
// solve_end event (TestSolveEndCarriesDiagnostics checks its trajectory),
// a snapshot referenced from it, and a snapshot file that loads, validates, and records the
// divergence outcome.
func TestDivergenceJournalAndSnapshot(t *testing.T) {
	path := withTestJournal(t)
	c := divergentCrossbar()
	_, err := c.Solve([]float64{0.3, 0.3}, SolveOptions{MaxNewton: 5})
	if !errors.Is(err, ErrNewtonDiverged) {
		t.Fatalf("want divergence, got %v", err)
	}
	telemetry.DefaultJournal().Close()

	events, err := telemetry.ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The solve's circuit.solve span and its assemble/setup/newton phase
	// spans end before its solve_end.
	var types []telemetry.EventType
	for _, ev := range events {
		types = append(types, ev.Type)
	}
	want := []telemetry.EventType{telemetry.EvJournal, telemetry.EvSpan, telemetry.EvSpan,
		telemetry.EvSpan, telemetry.EvSpan, telemetry.EvSolveEnd}
	if !slices.Equal(types, want) {
		t.Fatalf("journal holds %v, want the header, one solve_end and four spans: %v", types, want)
	}
	var end SolveEnd
	if err := events[5].Decode(&end); err != nil {
		t.Fatal(err)
	}
	if end.OK {
		t.Errorf("solve_end ok=true for diverged solve")
	}
	// The event and its snapshot are named by the solve span's ID.
	if id := telemetry.FormatID(uint64(end.Span)); events[5].ID != id {
		t.Fatalf("solve_end id %q, want its span's ID %q", events[5].ID, id)
	}
	snaps := telemetry.JournalSnapshotPaths(path, events)
	if len(snaps) != 1 {
		t.Fatalf("journal references %d snapshots, want 1", len(snaps))
	}
	if want := path + ".snap-" + events[5].ID + ".divergence.json"; snaps[0] != want {
		t.Fatalf("snapshot %q, want %q", snaps[0], want)
	}
	snap, err := LoadSnapshot(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	if snap.Kind != "dc" || snap.Outcome.OK || snap.Outcome.Err == "" {
		t.Fatalf("snapshot outcome %+v", snap.Outcome)
	}
	if snap.Outcome.Diag == nil || snap.Outcome.NewtonIters != 5 || len(snap.Outcome.Diag.Residuals) != 5 {
		t.Fatalf("snapshot trajectory %d iters / diag %+v, want 5 iters and 5 residuals",
			snap.Outcome.NewtonIters, snap.Outcome.Diag)
	}
	// The snapshot records the same Diagnostics record solve_end journals.
	jb, jerr := json.Marshal(end.Diag)
	sb, serr := json.Marshal(snap.Outcome.Diag)
	if jerr != nil || serr != nil || string(jb) != string(sb) {
		t.Fatalf("snapshot diag differs from solve_end's:\n snapshot %s\n journal  %s", sb, jb)
	}
	if snap.Options.MaxNewton != 5 || snap.Options.Tol != 1e-9 {
		t.Fatalf("snapshot options not normalised: %+v", snap.Options)
	}
}

// A journaled solve_end decodes to the Diagnostics the solve returned —
// residual trajectory, per-step CG counts, cost model and convergence
// analytics, finite values equal by bits — for a converged solve and for a
// diverged one.
func TestSolveEndCarriesDiagnostics(t *testing.T) {
	path := withTestJournal(t)
	c := &Crossbar{M: 4, N: 4, R: uniformR(4, 4, 150e3), WireR: 0.5, RSense: 1500, Dev: device.RRAM()}
	res, err := c.Solve([]float64{0.3, 0.2, 0.1, 0.3}, SolveOptions{Diagnostics: true})
	if err != nil {
		t.Fatal(err)
	}
	_, err = divergentCrossbar().Solve([]float64{0.3, 0.3}, SolveOptions{MaxNewton: 5})
	var de *DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("want divergence, got %v", err)
	}
	telemetry.DefaultJournal().Close()
	events, err := telemetry.ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []*Diagnostics
	for _, ev := range events {
		if ev.Type != telemetry.EvSolveEnd {
			continue
		}
		var end SolveEnd
		if err := ev.Decode(&end); err != nil || end.Diag == nil {
			t.Fatalf("%s: diag %v, err %v", ev.ID, end.Diag, err)
		}
		got = append(got, end.Diag)
	}
	want := []*Diagnostics{res.Diag, de.Diag}
	if len(got) != len(want) {
		t.Fatalf("%d solve_end events, want %d", len(got), len(want))
	}
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(JSONFinite(x))
		}
		return out
	}
	for i, w := range want {
		g := got[i]
		if !reflect.DeepEqual(bits(g.Residuals), bits(w.Residuals)) || !reflect.DeepEqual(g.CGIters, w.CGIters) {
			t.Errorf("solve %d trajectory %v / %v, want %v / %v", i, g.Residuals, g.CGIters, w.Residuals, w.CGIters)
		}
		if *g.Cost != *w.Cost {
			t.Errorf("solve %d cost %+v, want %+v", i, *g.Cost, *w.Cost)
		}
		if math.Float64bits(g.CondEstimate) != math.Float64bits(JSONFinite(w.CondEstimate)) || w.CondEstimate == 0 {
			t.Errorf("solve %d cond estimate %v, want %v (nonzero)", i, g.CondEstimate, w.CondEstimate)
		}
		gc, wc := *g.Convergence, *w.Convergence
		if math.Float64bits(gc.DecayRate) != math.Float64bits(wc.DecayRate) ||
			math.Float64bits(gc.CGPerNewton) != math.Float64bits(wc.CGPerNewton) || gc.Stagnated != wc.Stagnated {
			t.Errorf("solve %d convergence %+v, want %+v", i, gc, wc)
		}
		if g.Path != w.Path || g.SetupCGIters != w.SetupCGIters || g.WarmStart != w.WarmStart || g.PrecondRefreshes != w.PrecondRefreshes {
			t.Errorf("solve %d path fields %+v, want %+v", i, g, w)
		}
	}
}

// A non-settling transient must snapshot too, with the resolved options.
func TestNotSettledJournalAndSnapshot(t *testing.T) {
	path := withTestJournal(t)
	c := &Crossbar{M: 2, N: 2, R: uniformR(2, 2, 1e3), WireR: 1, RSense: 100, Linear: true}
	_, err := c.SettleTime([]float64{0.3, 0.3}, TransientOptions{NodeCap: 1e-15, MaxSteps: 1, Dt: 1e-15})
	if !errors.Is(err, ErrNotSettled) {
		t.Fatalf("want ErrNotSettled, got %v", err)
	}
	telemetry.DefaultJournal().Close()
	events, err := telemetry.ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snaps := telemetry.JournalSnapshotPaths(path, events)
	if len(snaps) != 1 {
		t.Fatalf("journal references %d snapshots, want 1", len(snaps))
	}
	for _, ev := range events {
		if want := path + ".snap-" + ev.ID + ".transient.json"; ev.Type == telemetry.EvTransientSettle && snaps[0] != want {
			t.Fatalf("snapshot %q, want %q", snaps[0], want)
		}
	}
	snap, err := LoadSnapshot(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	if snap.Kind != "transient" || snap.Transient == nil {
		t.Fatalf("snapshot kind %q transient %v", snap.Kind, snap.Transient)
	}
	if snap.Transient.MaxSteps != 1 || snap.Transient.Dt != 1e-15 || snap.Transient.SettleFrac != 1.0/512 {
		t.Fatalf("transient options not resolved: %+v", snap.Transient)
	}
	if snap.Outcome.OK || snap.Outcome.Steps != 1 || snap.Outcome.LastMaxDV <= 0 {
		t.Fatalf("snapshot outcome %+v", snap.Outcome)
	}
}

// Numerical neutrality: enabling the journal must not change a single bit
// of the computed solution.
func TestJournalNumericallyNeutral(t *testing.T) {
	c := &Crossbar{M: 4, N: 4, R: uniformR(4, 4, 150e3), WireR: 0.5, RSense: 1500, Dev: device.RRAM()}
	vin := []float64{0.3, 0.2, 0.1, 0.3}
	plain, err := c.Solve(vin, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	withTestJournal(t)
	recorded, err := c.Solve(vin, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for n := range plain.VOut {
		if plain.VOut[n] != recorded.VOut[n] {
			t.Fatalf("column %d: %v with journal vs %v without", n, recorded.VOut[n], plain.VOut[n])
		}
	}
	if plain.Power != recorded.Power || plain.NewtonIters != recorded.NewtonIters || plain.CGIters != recorded.CGIters {
		t.Fatalf("solve statistics differ with journal enabled")
	}
}

// The success-path diagnostics record the full convergence trajectory, and
// opting into SolveOptions.Diagnostics adds a positive condition estimate.
func TestSolveDiagnosticsAttached(t *testing.T) {
	c := &Crossbar{M: 4, N: 4, R: uniformR(4, 4, 150e3), WireR: 0.5, RSense: 1500, Dev: device.RRAM()}
	vin := []float64{0.3, 0.2, 0.1, 0.3}
	res, err := c.Solve(vin, SolveOptions{Diagnostics: true})
	if err != nil {
		t.Fatal(err)
	}
	d := res.Diag
	if d == nil {
		t.Fatal("Result.Diag nil")
	}
	if d.Path != "newton-cg" {
		t.Errorf("Path = %q", d.Path)
	}
	if d.SetupCGIters <= 0 {
		t.Errorf("SetupCGIters = %d", d.SetupCGIters)
	}
	// NewtonIters counts the setup solve too; the trajectory holds the rest.
	if len(d.Residuals) != res.NewtonIters-1 || len(d.CGIters) != res.NewtonIters-1 {
		t.Errorf("trajectory %d/%d entries, want %d", len(d.Residuals), len(d.CGIters), res.NewtonIters-1)
	}
	if last := d.Residuals[len(d.Residuals)-1]; last >= 1e-9 {
		t.Errorf("converged solve's final residual %v above Tol", last)
	}
	if d.CondEstimate <= 1 {
		t.Errorf("CondEstimate = %v, want > 1", d.CondEstimate)
	}
	// Without the opt-in the estimate is skipped but the trajectory stays.
	res2, err := c.Solve(vin, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Diag == nil || res2.Diag.CondEstimate != 0 {
		t.Fatalf("default solve diag %+v", res2.Diag)
	}
	// The zero-wire fast path labels itself.
	zw := &Crossbar{M: 4, N: 4, R: uniformR(4, 4, 150e3), WireR: 0, RSense: 1500, Dev: device.RRAM()}
	res3, err := zw.Solve(vin, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Diag == nil || res3.Diag.Path != "zero-wire-bisection" {
		t.Fatalf("zero-wire diag %+v", res3.Diag)
	}
}
