package replay

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mnsim/internal/circuit"
	"mnsim/internal/device"
	"mnsim/internal/telemetry"
)

func uniformR(m, n int, r float64) [][]float64 {
	out := make([][]float64, m)
	for i := range out {
		out[i] = make([]float64, n)
		for j := range out[i] {
			out[i][j] = r
		}
	}
	return out
}

func testCrossbar() *circuit.Crossbar {
	return &circuit.Crossbar{
		M: 4, N: 4, R: uniformR(4, 4, 150e3),
		WireR: 0.5, RSense: 1500, Dev: device.RRAM(),
	}
}

// Record a successful solve, snapshot it, reload, replay: bit-identical.
func TestReplayRoundTripSuccess(t *testing.T) {
	c := testCrossbar()
	vin := []float64{0.3, 0.2, 0.1, 0.3}
	opt := circuit.SolveOptions{Tol: 1e-9, MaxNewton: 50, CGTol: 1e-10}
	res, err := c.Solve(vin, opt)
	if err != nil {
		t.Fatal(err)
	}
	snap := c.NewSnapshot(vin, opt, res, nil)
	path := filepath.Join(t.TempDir(), "snap.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := circuit.WriteSnapshot(f, snap); err != nil {
		t.Fatal(err)
	}
	f.Close()
	loaded, err := circuit.LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Snapshot(context.Background(), loaded, &sb, true); err != nil {
		t.Fatalf("replay mismatch: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "bit-identical") {
		t.Fatalf("replay report missing verdict:\n%s", sb.String())
	}
	// Verbose mode prints the per-iteration trajectory.
	if !strings.Contains(sb.String(), "newton  0") && !strings.Contains(sb.String(), "newton 0") {
		t.Fatalf("verbose replay missing iteration lines:\n%s", sb.String())
	}
}

// A tampered recorded outcome must be detected as a mismatch.
func TestReplayDetectsMismatch(t *testing.T) {
	c := testCrossbar()
	vin := []float64{0.3, 0.2, 0.1, 0.3}
	opt := circuit.SolveOptions{Tol: 1e-9, MaxNewton: 50, CGTol: 1e-10}
	res, err := c.Solve(vin, opt)
	if err != nil {
		t.Fatal(err)
	}
	snap := c.NewSnapshot(vin, opt, res, nil)
	snap.Outcome.VOut[2] += 1e-15
	var sb strings.Builder
	err = Snapshot(context.Background(), snap, &sb, false)
	if !errors.Is(err, ErrMismatch) {
		t.Fatalf("tampered snapshot replayed clean: %v", err)
	}
}

// The flight-recorder loop end to end: journal a diverging solve, then
// replay the journal file — the captured snapshot must reproduce the
// divergence bit-identically.
func TestReplayJournalDivergence(t *testing.T) {
	j := telemetry.DefaultJournal()
	jp := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := j.Open(jp); err != nil {
		t.Fatal(err)
	}
	defer func() {
		j.Close()
		j.Reset()
	}()
	dev := device.RRAM()
	dev.NonlinearVc = 2e-3
	c := &circuit.Crossbar{M: 2, N: 2, R: uniformR(2, 2, 100e3), WireR: 1, RSense: 1500, Dev: dev}
	if _, err := c.Solve([]float64{0.3, 0.3}, circuit.SolveOptions{MaxNewton: 5}); !errors.Is(err, circuit.ErrNewtonDiverged) {
		t.Fatalf("want divergence, got %v", err)
	}
	j.Close()
	var sb strings.Builder
	n, err := File(context.Background(), jp, &sb, true)
	if err != nil {
		t.Fatalf("journal replay: %v\n%s", err, sb.String())
	}
	if n != 1 {
		t.Fatalf("replayed %d snapshots, want 1", n)
	}
	if !strings.Contains(sb.String(), "failure reproduced bit-identically") {
		t.Fatalf("replay report:\n%s", sb.String())
	}
	// Verbose failure replay surfaces the condition estimate.
	if !strings.Contains(sb.String(), "cond(J)") {
		t.Fatalf("verbose failure replay missing cond estimate:\n%s", sb.String())
	}
}

// A non-settling transient round-trips through its snapshot too.
func TestReplayTransientNonSettle(t *testing.T) {
	j := telemetry.DefaultJournal()
	jp := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := j.Open(jp); err != nil {
		t.Fatal(err)
	}
	defer func() {
		j.Close()
		j.Reset()
	}()
	c := &circuit.Crossbar{M: 2, N: 2, R: uniformR(2, 2, 1e3), WireR: 1, RSense: 100, Linear: true}
	_, err := c.SettleTime([]float64{0.3, 0.3},
		circuit.TransientOptions{NodeCap: 1e-15, MaxSteps: 1, Dt: 1e-15})
	if !errors.Is(err, circuit.ErrNotSettled) {
		t.Fatalf("want ErrNotSettled, got %v", err)
	}
	j.Close()
	var sb strings.Builder
	if _, err := File(context.Background(), jp, &sb, false); err != nil {
		t.Fatalf("transient replay: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "non-settle reproduced bit-identically") {
		t.Fatalf("replay report:\n%s", sb.String())
	}
}

// Journals without snapshots and unreadable paths fail loudly.
func TestReplayFileErrors(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	if _, err := File(context.Background(), filepath.Join(dir, "missing.json"), &sb, false); err == nil {
		t.Error("missing snapshot accepted")
	}
	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, []byte(`{"seq":1,"t_ns":1,"type":"journal"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := File(context.Background(), empty, &sb, false); err == nil {
		t.Error("snapshot-less journal accepted")
	}
}

// The cost model must survive the journal → snapshot → replay loop
// bit-identically: operation counts are integers, so the recorded and
// re-run models compare exactly — and a tampered count is a mismatch.
func TestReplayCostRoundTrip(t *testing.T) {
	j := telemetry.DefaultJournal()
	jp := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := j.Open(jp); err != nil {
		t.Fatal(err)
	}
	defer func() {
		j.Close()
		j.Reset()
	}()
	dev := device.RRAM()
	dev.NonlinearVc = 2e-3
	c := &circuit.Crossbar{M: 2, N: 2, R: uniformR(2, 2, 100e3), WireR: 1, RSense: 1500, Dev: dev}
	if _, err := c.Solve([]float64{0.3, 0.3}, circuit.SolveOptions{MaxNewton: 5}); !errors.Is(err, circuit.ErrNewtonDiverged) {
		t.Fatalf("want divergence, got %v", err)
	}
	j.Close()
	// The journaled solve_end event carries the cost model.
	events, err := telemetry.ReadJournalFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	var journaled *circuit.CostModel
	for _, ev := range events {
		if ev.Type == telemetry.EvSolveEnd {
			d, err := circuit.JournaledDiagnostics(ev)
			if err != nil {
				t.Fatal(err)
			}
			journaled = d.Cost
		}
	}
	if journaled == nil || journaled.Total().Flops == 0 {
		t.Fatalf("solve_end carries no positive cost model: %+v", journaled)
	}
	// The captured snapshot records the cost model...
	snaps := telemetry.JournalSnapshotPaths(jp, events)
	if len(snaps) != 1 {
		t.Fatalf("want 1 snapshot, got %d", len(snaps))
	}
	snap, err := circuit.LoadSnapshot(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	if snap.Outcome.Diag == nil || snap.Outcome.Diag.Cost == nil || *snap.Outcome.Diag.Cost != *journaled {
		t.Fatalf("snapshot diag %+v, journaled cost %+v", snap.Outcome.Diag, journaled)
	}
	// ...and a verbose replay reproduces it exactly, rendering attribution.
	var sb strings.Builder
	if err := Snapshot(context.Background(), snap, &sb, true); err != nil {
		t.Fatalf("cost replay mismatch: %v\n%s", err, sb.String())
	}
	for _, want := range []string{"cost assembly", "cost cg-loop", "cost total", "decay rate"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("verbose replay missing %q:\n%s", want, sb.String())
		}
	}
	// A tampered operation count must be caught.
	snap.Outcome.Diag.Cost.CGLoop.Flops++
	sb.Reset()
	if err := Snapshot(context.Background(), snap, &sb, false); !errors.Is(err, ErrMismatch) {
		t.Fatalf("tampered cost replayed clean: %v", err)
	}
}

// A snapshot written before the preconditioner and cost-accounting knobs
// and the dense-LU factorization count were retired still carries their
// keys; it must load (the keys are ignored) and replay bit-identically.
func TestReplayLegacyOptionKeys(t *testing.T) {
	c := testCrossbar()
	vin := []float64{0.3, 0.2, 0.1, 0.3}
	opt := circuit.SolveOptions{Tol: 1e-9, MaxNewton: 50, CGTol: 1e-10}
	res, err := c.Solve(vin, opt)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := circuit.WriteSnapshot(&sb, c.NewSnapshot(vin, opt, res, nil)); err != nil {
		t.Fatal(err)
	}
	doc := strings.Replace(sb.String(), `"options": {`,
		`"options": {"precond":"block-jacobi","no_cost_accounting":false,`, 1)
	if doc == sb.String() {
		t.Fatal("options object not found in the written snapshot")
	}
	withCost := strings.Replace(doc, `"assembly": {`, `"assembly": {"factorizations":0,`, 1)
	if withCost == doc {
		t.Fatal("cost model not found in the written snapshot")
	}
	doc = withCost
	path := filepath.Join(t.TempDir(), "legacy.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := circuit.LoadSnapshot(path)
	if err != nil {
		t.Fatalf("legacy snapshot rejected: %v", err)
	}
	var out strings.Builder
	if err := Snapshot(context.Background(), loaded, &out, false); err != nil {
		t.Fatalf("legacy snapshot replay mismatch: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "bit-identical") {
		t.Fatalf("replay report lacks the bit-identity verdict:\n%s", out.String())
	}
}

// A snapshot without recorded diagnostics (schema version 1 keeps none)
// has no cost model to check; replay must skip the check rather than flag
// a mismatch.
func TestReplayCostAbsentSkipsCheck(t *testing.T) {
	c := testCrossbar()
	vin := []float64{0.3, 0.2, 0.1, 0.3}
	res, err := c.Solve(vin, circuit.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap := c.NewSnapshot(vin, circuit.SolveOptions{}, res, nil)
	snap.Outcome.Diag = nil
	var sb strings.Builder
	if err := Snapshot(context.Background(), snap, &sb, false); err != nil {
		t.Fatalf("cost-less snapshot failed replay: %v\n%s", err, sb.String())
	}
}

// Replay checks the whole recorded Diagnostics, not only the outputs: a
// recorded preconditioner refresh count, solver path or Newton step CG
// count that the re-run does not reproduce is a mismatch, for a converged
// solve and for a diverged one.
func TestReplayDetectsDiagTampering(t *testing.T) {
	dev := device.RRAM()
	dev.NonlinearVc = 2e-3
	diverging := &circuit.Crossbar{M: 2, N: 2, R: uniformR(2, 2, 100e3), WireR: 1, RSense: 1500, Dev: dev}
	converged := testCrossbar()
	vin := []float64{0.3, 0.2, 0.1, 0.3}
	opt := circuit.SolveOptions{Tol: 1e-9, MaxNewton: 50, CGTol: 1e-10}
	res, err := converged.Solve(vin, opt)
	if err != nil {
		t.Fatal(err)
	}
	_, derr := diverging.Solve([]float64{0.3, 0.3}, circuit.SolveOptions{MaxNewton: 5})
	if !errors.Is(derr, circuit.ErrNewtonDiverged) {
		t.Fatalf("want divergence, got %v", derr)
	}
	dir := t.TempDir()
	snaps := map[string]*circuit.Snapshot{
		"converged": converged.NewSnapshot(vin, opt, res, nil),
		"diverged":  diverging.NewSnapshot([]float64{0.3, 0.3}, circuit.SolveOptions{MaxNewton: 5}, nil, derr),
	}
	// load gives each case its own decoded copy, so no tampering aliases
	// another case's diagnostics.
	load := func(kind string) *circuit.Snapshot {
		path := filepath.Join(dir, kind+".json")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := circuit.WriteSnapshot(f, snaps[kind]); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		s, err := circuit.LoadSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	tampers := map[string]func(d *circuit.Diagnostics){
		"precond_refreshes": func(d *circuit.Diagnostics) { d.PrecondRefreshes++ },
		"path":              func(d *circuit.Diagnostics) { d.Path = "linear-cg" },
		"cg_iters":          func(d *circuit.Diagnostics) { d.CGIters[len(d.CGIters)-1]++ },
	}
	for kind := range snaps {
		var sb strings.Builder
		if err := Snapshot(context.Background(), load(kind), &sb, false); err != nil {
			t.Fatalf("%s: untampered snapshot failed replay: %v\n%s", kind, err, sb.String())
		}
		for field, tamper := range tampers {
			s := load(kind)
			if s.Outcome.Diag == nil || len(s.Outcome.Diag.CGIters) == 0 {
				t.Fatalf("%s: snapshot records no Newton CG counts: %+v", kind, s.Outcome.Diag)
			}
			tamper(s.Outcome.Diag)
			if err := Snapshot(context.Background(), s, &sb, false); !errors.Is(err, ErrMismatch) {
				t.Errorf("%s: tampered %s replayed clean: %v", kind, field, err)
			}
		}
	}
}

// Snapshots written in the schema-1 layout — the outcome's "residuals",
// "cost" and (for a divergence) "final_residual" keys, no "diag" — still
// load and replay their outputs, iteration counts and error. The testdata
// files were written by the last schema-1 build: v1-divergence.json by
// mnsim-replay -force-divergence, v1-success.json from
// TestReplayRoundTripSuccess's solve.
func TestReplaySchemaV1Snapshots(t *testing.T) {
	v1Keys := []string{`"schema_version": 1,`, `"residuals"`, `"cost"`}
	for name, keys := range map[string][]string{
		"v1-success.json":    v1Keys,
		"v1-divergence.json": append(v1Keys, `"final_residual"`),
	} {
		path := filepath.Join("testdata", name)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		doc := string(raw)
		for _, key := range keys {
			if !strings.Contains(doc, key) {
				t.Fatalf("%s lacks the schema-1 key %s", name, key)
			}
		}
		if strings.Contains(doc, `"diag"`) {
			t.Fatalf("%s carries a schema-2 diag", name)
		}
		var sb strings.Builder
		if _, err := File(context.Background(), path, &sb, true); err != nil {
			t.Fatalf("%s: %v\n%s", name, err, sb.String())
		}
		if !strings.Contains(sb.String(), "bit-identical") {
			t.Fatalf("%s: replay report lacks the verdict:\n%s", name, sb.String())
		}
		// The outputs, iteration counts and error are still checked.
		s, err := circuit.LoadSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		if s.Outcome.Diag != nil {
			t.Fatalf("%s: schema-1 snapshot decoded a diag", name)
		}
		if s.Outcome.OK {
			s.Outcome.VOut[0] += 1e-15
		} else {
			s.Outcome.NewtonIters++
		}
		if err := Snapshot(context.Background(), s, &sb, false); !errors.Is(err, ErrMismatch) {
			t.Errorf("%s: tampered schema-1 outcome replayed clean: %v", name, err)
		}
	}
}
