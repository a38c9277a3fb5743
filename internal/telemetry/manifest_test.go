package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestManifestWriteLoadRoundTrip(t *testing.T) {
	run := NewRunInfo()
	run.SetTool("mnsim-test")
	run.SetArgs([]string{"-case", "largebank"})
	run.SetSeed(42)
	run.SetWorkers(4)
	run.SetConfigHash(HashStrings("case=largebank"))
	// The registry is process-wide: under -count=2 the counter carries the
	// previous run's 7, so the snapshot must show this run's on top.
	counter := GetCounter("mnsim_manifesttest_total")
	want := counter.Value() + 7
	counter.Add(7)
	_, sp := StartSpan(context.Background(), "manifesttest.phase")
	sp.End()

	path := filepath.Join(t.TempDir(), "run.json")
	if err := WriteManifestFile(path, run); err != nil {
		t.Fatal(err)
	}
	m, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tool != "mnsim-test" || m.Seed == nil || *m.Seed != 42 || m.Workers != 4 {
		t.Fatalf("manifest identity = %+v", m)
	}
	if m.ExitStatus != 0 || m.Error != "" {
		t.Fatalf("clean run has exit %d error %q", m.ExitStatus, m.Error)
	}
	if m.Metrics.Counters["mnsim_manifesttest_total"] != want {
		t.Fatalf("metrics snapshot missing counter: %+v", m.Metrics.Counters)
	}
	found := false
	for _, p := range m.Phases {
		if p.Name == "manifesttest.phase" && p.Count >= 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("manifest missing span phase: %+v", m.Phases)
	}
	// No leftover temp files from the atomic write.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("dump dir has %d entries, want just run.json", len(entries))
	}
}

func TestManifestRecordsError(t *testing.T) {
	run := NewRunInfo()
	run.SetTool("mnsim-test")
	run.SetError(os.ErrClosed)
	m := run.Manifest()
	if m.ExitStatus != 1 || !strings.Contains(m.Error, "closed") {
		t.Fatalf("failed run manifest = exit %d error %q", m.ExitStatus, m.Error)
	}
}

func TestManifestValidate(t *testing.T) {
	good := NewRunInfo()
	good.SetTool("t")
	if err := good.Manifest().Validate(); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	bad := good.Manifest()
	bad.SchemaVersion = 99
	if err := bad.Validate(); err == nil {
		t.Fatal("wrong schema version accepted")
	}
	bad = good.Manifest()
	bad.Tool = ""
	if err := bad.Validate(); err == nil {
		t.Fatal("missing tool accepted")
	}
}

func TestLoadManifestRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	trunc := filepath.Join(dir, "trunc.json")
	if err := os.WriteFile(trunc, []byte(`{"schema_version":1,"tool":"x"`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(trunc); err == nil {
		t.Fatal("truncated manifest accepted")
	}
	if _, err := LoadManifest(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("missing manifest accepted")
	}
}

func TestWriteFileAtomicLeavesOldFileOnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := writeFileAtomic(path, func(w io.Writer) error {
		w.Write([]byte("partial"))
		return os.ErrClosed
	})
	if err == nil {
		t.Fatal("write error swallowed")
	}
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "old" {
		t.Fatalf("old file clobbered: %q %v", b, err)
	}
	entries, _ := os.ReadDir(filepath.Dir(path))
	if len(entries) != 1 {
		t.Fatalf("temp file leaked: %d entries", len(entries))
	}
}

func TestRunInfoJSON(t *testing.T) {
	run := NewRunInfo()
	run.SetTool("mnsim-dse")
	var sb strings.Builder
	if err := run.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"tool", "pid", "start_time", "go_version", "os", "arch"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("runinfo missing %q: %s", key, sb.String())
		}
	}
}
