package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mnsim/internal/telemetry"
)

func writeManifest(t *testing.T, dir, name string, m telemetry.Manifest) string {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func sampleManifest() telemetry.Manifest {
	return telemetry.Manifest{
		SchemaVersion: telemetry.ManifestSchemaVersion,
		Tool:          "mnsim-dse",
		Args:          []string{"-case", "largebank"},
		ConfigHash:    "deadbeefdeadbeef",
		GoVersion:     "go1.22",
		OS:            "linux",
		Arch:          "amd64",
		StartTime:     time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC),
		WallSeconds:   10,
		Phases: []telemetry.SpanStat{
			{Name: "dse.explore", Count: 1, TotalUS: 9e6, AvgUS: 9e6},
			{Name: "candidate", Count: 400, TotalUS: 8e6, AvgUS: 2e4},
		},
		Metrics: telemetry.MetricsSnapshot{
			Counters: map[string]int64{
				"mnsim_dse_candidates_total":          400,
				"mnsim_dse_candidates_feasible_total": 100,
			},
			Gauges: map[string]float64{"mnsim_accuracy_mc_samples_per_second": 4},
			Histograms: map[string]telemetry.HistogramSnapshot{
				"mnsim_dse_candidate_eval_us": {Count: 400, Sum: 8e6},
			},
		},
	}
}

func TestDiffFlagsBeyondThreshold(t *testing.T) {
	dir := t.TempDir()
	a := sampleManifest()
	b := sampleManifest()
	// 50% slower run, 4x feasible count; candidate totals unchanged.
	b.WallSeconds = 15
	b.Phases[0].TotalUS = 13.5e6
	b.Metrics.Counters["mnsim_dse_candidates_feasible_total"] = 400
	b.Metrics.Counters["mnsim_runs_only_in_b_total"] = 7
	aPath := writeManifest(t, dir, "a.json", a)
	bPath := writeManifest(t, dir, "b.json", b)

	var sb strings.Builder
	flagged, err := runDiff(&sb, aPath, bPath, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// wall_seconds +50%, dse.explore phase +50%, feasible +300%, and the
	// new-in-b counter must all be flagged; the unchanged candidate count
	// must not be.
	if flagged != 4 {
		t.Fatalf("flagged = %d, want 4; output:\n%s", flagged, out)
	}
	for _, want := range []string{"wall_seconds", "dse.explore", "feasible", "+300.0%", "new"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "mnsim_dse_candidates_total") && strings.Contains(line, "!") {
			t.Errorf("unchanged counter flagged: %s", line)
		}
	}

	// A looser threshold lets the 50% deltas through but still flags the
	// 300% and the new series.
	sb.Reset()
	flagged, err = runDiff(&sb, aPath, bPath, 0.60)
	if err != nil {
		t.Fatal(err)
	}
	if flagged != 2 {
		t.Fatalf("flagged at 60%% = %d, want 2; output:\n%s", flagged, sb.String())
	}
}

// Timing rows whose larger value is under 100 ms are never flagged, however
// far they move; at or above the floor they are, and other series have none.
func TestDiffTimeFloor(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name           string
		wallA, wallB   float64 // seconds
		phaseA, phaseB float64 // µs
		want           int
	}{
		{"under the floor", 0.0205, 0.005, 99e3, 17e3, 0},
		{"at the floor", 0.1, 0.025, 100e3, 18e3, 2},
		{"above the floor", 0.5, 0.12, 4e5, 1e5, 2},
	} {
		a, b := sampleManifest(), sampleManifest()
		a.WallSeconds, b.WallSeconds = tc.wallA, tc.wallB
		a.Phases[0].TotalUS, b.Phases[0].TotalUS = tc.phaseA, tc.phaseB
		// A counter with tiny values has no floor.
		a.Metrics.Counters["mnsim_dse_candidates_feasible_total"] = 4
		b.Metrics.Counters["mnsim_dse_candidates_feasible_total"] = 1
		var sb strings.Builder
		flagged, err := runDiff(&sb, writeManifest(t, dir, "a.json", a), writeManifest(t, dir, "b.json", b), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if flagged != tc.want+1 {
			t.Errorf("%s: flagged = %d, want %d timing rows and the counter:\n%s", tc.name, flagged, tc.want, sb.String())
		}
	}
	// A timing histogram's mean is a timing row, floored on its sums: the
	// paper sweep's per-candidate evaluation going from 0.34 to 0.72 µs
	// over 6,570 candidates sums to under 5 ms and is not flagged; a mean
	// that doubles over sums above 100 ms is. Its count is unchanged.
	for _, tc := range []struct {
		name         string
		meanA, meanB float64 // µs
		want         int
	}{
		{"histogram under the floor", 0.34, 0.72, 0},
		{"histogram above the floor", 20, 40, 1},
	} {
		a, b := sampleManifest(), sampleManifest()
		a.Metrics.Histograms["mnsim_dse_candidate_eval_us"] = telemetry.HistogramSnapshot{Count: 6570, Sum: 6570 * tc.meanA}
		b.Metrics.Histograms["mnsim_dse_candidate_eval_us"] = telemetry.HistogramSnapshot{Count: 6570, Sum: 6570 * tc.meanB}
		var sb strings.Builder
		flagged, err := runDiff(&sb, writeManifest(t, dir, "a.json", a), writeManifest(t, dir, "b.json", b), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if flagged != tc.want {
			t.Errorf("%s: flagged = %d, want %d:\n%s", tc.name, flagged, tc.want, sb.String())
		}
	}
}

// A one-sided series reads "new" or "gone" by which manifest holds it,
// whatever the sign of its value, and is flagged; a series both hold that
// grew from 0 reads "from 0".
func TestDiffLabelsOneSidedByPresence(t *testing.T) {
	dir := t.TempDir()
	a := sampleManifest()
	b := sampleManifest()
	a.Metrics.Gauges["mnsim_only_in_a"] = 2
	b.Metrics.Gauges["mnsim_only_in_b"] = -3
	a.Metrics.Gauges["mnsim_from_zero"] = 0
	b.Metrics.Gauges["mnsim_from_zero"] = -1
	var sb strings.Builder
	flagged, err := runDiff(&sb, writeManifest(t, dir, "a.json", a), writeManifest(t, dir, "b.json", b), 0.10)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	want := map[string]string{
		"mnsim_only_in_a": "gone",
		"mnsim_only_in_b": "new",
		"mnsim_from_zero": "from 0",
	}
	for series, label := range want {
		var line string
		for _, l := range strings.Split(out, "\n") {
			if strings.Contains(l, series) {
				line = l
			}
		}
		if !strings.Contains(line, label) || !strings.Contains(line, "!") {
			t.Errorf("%s row %q, want it labelled %q and flagged:\n%s", series, line, label, out)
		}
	}
	if flagged != len(want) {
		t.Errorf("flagged = %d, want %d:\n%s", flagged, len(want), out)
	}
}

func TestDiffConfigHashMismatchNoted(t *testing.T) {
	dir := t.TempDir()
	a := sampleManifest()
	b := sampleManifest()
	b.ConfigHash = "0123456701234567"
	var sb strings.Builder
	if _, err := runDiff(&sb, writeManifest(t, dir, "a.json", a), writeManifest(t, dir, "b.json", b), 0.10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "config hashes differ") {
		t.Errorf("mismatched config hashes not noted:\n%s", sb.String())
	}
}

func TestRelDelta(t *testing.T) {
	cases := []struct {
		a, b, want float64
	}{
		{10, 15, 0.5},
		{10, 5, -0.5},
		{0, 0, 0},
		{-4, -2, 0.5},
	}
	for _, c := range cases {
		if got := relDelta(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("relDelta(%g, %g) = %g, want %g", c.a, c.b, got, c.want)
		}
	}
	if !math.IsInf(relDelta(0, 3), +1) {
		t.Error("new series should be +Inf")
	}
	if !math.IsInf(relDelta(0, -3), -1) {
		t.Error("new negative series should be -Inf")
	}
}

func TestShowRendersManifest(t *testing.T) {
	dir := t.TempDir()
	m := sampleManifest()
	seed := int64(42)
	m.Seed = &seed
	m.Workers = 8
	m.Artifacts = map[string]string{
		"journal":      "out/run.jsonl",
		"trace_events": "out/trace.json",
	}
	path := writeManifest(t, dir, "run.json", m)
	var sb strings.Builder
	if err := runShow(&sb, path); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"mnsim-dse", "largebank", "42", "dse.explore", "candidate",
		"Artifact: journal", "out/run.jsonl", "Artifact: trace_events", "out/trace.json"} {
		if !strings.Contains(out, want) {
			t.Errorf("show output missing %q:\n%s", want, out)
		}
	}
	if err := runShow(&sb, filepath.Join(dir, "absent.json")); err == nil {
		t.Error("show accepted a missing manifest")
	}
}

// TestShowOldManifestWithResources shows a manifest written while the
// resource sampler existed: its "resources" rollup is a key this build
// no longer reads, and show must render the rest as for any manifest.
func TestShowOldManifestWithResources(t *testing.T) {
	dir := t.TempDir()
	b, err := json.Marshal(sampleManifest())
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	doc["resources"] = json.RawMessage(`{"samples":120,"interval_ms":1000,"peak_heap_live_bytes":100663296,` +
		`"max_goroutines":17,"total_alloc_bytes":3221225472,"total_alloc_objects":4200000,"gc_cycles":58,` +
		`"gc_pause_total_ns":2400000,"gc_cpu_fraction":0.013,"mem_pressure_events":2,"watchdog_stalls":1}`)
	if b, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "run.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := runShow(&sb, path); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"mnsim-dse", "Phases by total wall time", "dse.explore"} {
		if !strings.Contains(out, want) {
			t.Errorf("show output missing %q:\n%s", want, out)
		}
	}
}
