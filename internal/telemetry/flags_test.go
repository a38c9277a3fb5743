package telemetry

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFlagsRegisterAndDump(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := AddFlags(fs)
	dir := t.TempDir()
	// The exact set, so that a new shared knob shows up as a reviewed diff.
	var names []string
	fs.VisitAll(func(fl *flag.Flag) { names = append(names, fl.Name) })
	want := "journal log-level metrics-out run-out serve serve-hold"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("AddFlags registered %q, want %q", got, want)
	}
	prom := filepath.Join(dir, "m.prom")
	js := filepath.Join(dir, "m.json")
	run := filepath.Join(dir, "run.json")
	if err := fs.Parse([]string{"-metrics-out", prom, "-run-out", run}); err != nil {
		t.Fatal(err)
	}
	// The registry is process-wide: under -count=2 the counter carries the
	// previous run's increment, so the dump must show this run's on top.
	counter := GetCounter("mnsim_flagtest_total")
	wantProm := fmt.Sprintf("mnsim_flagtest_total %d\n", counter.Value()+1)
	counter.Inc()
	if err := f.StartContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, sp := StartSpan(context.Background(), "flagtest.phase")
	sp.End()
	if err := f.Finish(); err != nil {
		t.Fatal(err)
	}
	promBody, err := os.ReadFile(prom)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(promBody), wantProm) {
		t.Fatalf("Prometheus dump missing counter:\n%s", promBody)
	}
	// The span aggregates are the manifest's phases.
	m, err := LoadManifest(run)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range m.Phases {
		found = found || (p.Name == "flagtest.phase" && p.Count >= 1)
	}
	if !found {
		t.Fatalf("manifest phases lack the span aggregate: %+v", m.Phases)
	}
	// A .json metrics path selects the JSON exporter.
	f.MetricsOut, f.RunOut = js, ""
	if err := f.Finish(); err != nil {
		t.Fatal(err)
	}
	jsBody, err := os.ReadFile(js)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(jsBody), `"counters"`) {
		t.Fatalf("JSON dump malformed:\n%s", jsBody)
	}
}

func TestFlagsBadLogLevel(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := AddFlags(fs)
	if err := fs.Parse([]string{"-log-level", "shouty"}); err != nil {
		t.Fatal(err)
	}
	if err := f.StartContext(context.Background()); err == nil {
		t.Fatal("bad log level accepted")
	}
}

func TestFlagsBadServeAddr(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := AddFlags(fs)
	if err := fs.Parse([]string{"-serve", "256.256.256.256:99999"}); err != nil {
		t.Fatal(err)
	}
	// The listen must fail synchronously in Start, not asynchronously in a
	// serve goroutine after the run is already underway.
	if err := f.StartContext(context.Background()); err == nil {
		f.Finish()
		t.Fatal("bad -serve address accepted")
	}
}

func TestFlagsFinishKeepsWritingAfterFailure(t *testing.T) {
	dir := t.TempDir()
	f := &Flags{
		MetricsOut: filepath.Join(dir, "no-such-subdir", "m.prom"), // unwritable
		RunOut:     filepath.Join(dir, "run.json"),
		Run:        NewRunInfo(),
	}
	f.Run.SetTool("mnsim-test")
	err := f.Finish()
	if err == nil {
		t.Fatal("unwritable -metrics-out did not surface an error")
	}
	// The later dumps must still have been written.
	if _, serr := os.Stat(f.RunOut); serr != nil {
		t.Errorf("run manifest skipped after metrics failure: %v", serr)
	}
	if m, lerr := LoadManifest(f.RunOut); lerr != nil || m.Tool != "mnsim-test" {
		t.Errorf("manifest after failure = %+v, %v", m, lerr)
	}
}
