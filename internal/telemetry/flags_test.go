package telemetry

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFlagsRegisterAndDump(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := AddFlags(fs)
	dir := t.TempDir()
	nflags := 0
	fs.VisitAll(func(*flag.Flag) { nflags++ })
	if nflags != 11 {
		t.Fatalf("AddFlags registered %d flags, want 11", nflags)
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
	want := fmt.Sprintf("mnsim_flagtest_total %d\n", counter.Value()+1)
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
	if !strings.Contains(string(promBody), want) {
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

// lockedBuffer is a Writer safe for the progress goroutine + test reader.
type lockedBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func TestFlagsProgressPrinter(t *testing.T) {
	var buf lockedBuffer
	f := &Flags{Progress: true, ProgressOut: &buf, ProgressInterval: 5 * time.Millisecond}
	if err := f.StartContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	p := StartPhase("flagstest.progress", 50)
	p.Add(20)
	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(buf.String(), "flagstest.progress") {
		if time.Now().After(deadline) {
			t.Fatalf("progress line never printed; output: %q", buf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	p.Finish()
	if err := f.Finish(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "20/50") {
		t.Errorf("progress output missing done/total: %q", out)
	}
	// Non-TTY writer: plain changed-line prints, no ANSI rewriting.
	if strings.Contains(out, "\r") || strings.Contains(out, "\x1b[") {
		t.Errorf("non-TTY progress used terminal escapes: %q", out)
	}
}
