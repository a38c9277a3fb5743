package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// meta describes a run: the machine, the toolchain, the code and the
// inputs. Every run prints it before its result line.
type meta struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	Ops        int    `json:"ops"`
	Commit     string `json:"commit"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`
	CPUModel   string `json:"cpu_model"`
}

func newMeta(workload string, seed int64, trace bool, ops int) meta {
	return meta{
		Workload: workload, Seed: seed, Trace: trace, Ops: ops,
		Commit:     commit(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		CPUModel:   cpuModel(),
	}
}

// machine is what two results must share before their timings compare.
func (m meta) machine() string {
	return fmt.Sprintf("%s, %d CPUs, GOMAXPROCS %d, %s, %s", m.CPUModel, m.NumCPU, m.GOMAXPROCS, m.Platform, m.GoVersion)
}

// commit is the VCS revision the binary was built from, when the build saw
// one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// record is one run of a repeat set, as saved to and read from a JSONL file.
type record struct {
	Set    string `json:"set"`
	Meta   meta   `json:"meta"`
	Result result `json:"result"`
}

type repeatConfig struct {
	workload string
	seed     int64
	seconds  float64
	runs     int
	bBin     string
	out      string
}

// repeatRuns makes two sets of runs, interleaved A B A B so host drift hits
// both alike, with pair k using seed seed+k on both sides. It saves the
// records and prints each metric's median and quartiles per set.
func repeatRuns(c repeatConfig, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "mnsimbench:", err)
		return 1
	}
	bins := map[string]string{"A": self, "B": self}
	if c.bBin != "" {
		bins["B"] = c.bBin
	}
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "mnsimbench:", err)
		return 1
	}
	path := filepath.Join(c.out, "repeat-"+c.workload+".jsonl")
	var recs []record
	var buf bytes.Buffer
	for k := 0; k < c.runs; k++ {
		for _, set := range []string{"A", "B"} {
			seed := c.seed + int64(k)
			rec, err := runChild(bins[set], set, c.workload, seed, c.seconds, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "mnsimbench: set %s seed %d: %v\n", set, seed, err)
				return 1
			}
			fmt.Fprintf(stdout, "set %s seed %d: attempted %d failed %d\n", set, seed, rec.Result.Attempted, rec.Result.Failed)
			recs = append(recs, rec)
			if err := json.NewEncoder(&buf).Encode(rec); err != nil {
				fmt.Fprintln(stderr, "mnsimbench:", err)
				return 1
			}
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		fmt.Fprintln(stderr, "mnsimbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "records saved to %s\n", path)
	if err := summarize(stdout, recs); err != nil {
		fmt.Fprintln(stderr, "mnsimbench:", err)
		return 2
	}
	return 0
}

// runChild runs one benchmark process and parses its meta and result lines.
func runChild(bin, set, workload string, seed int64, seconds float64, stderr io.Writer) (record, error) {
	cmd := exec.Command(bin, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return record{}, err
	}
	rec := record{Set: set}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if m, ok := strings.CutPrefix(line, "meta "); ok {
			if err := json.Unmarshal([]byte(m), &rec.Meta); err != nil {
				return record{}, fmt.Errorf("meta line: %w", err)
			}
		}
		last = line
	}
	if err := json.Unmarshal([]byte(last), &rec.Result); err != nil {
		return record{}, fmt.Errorf("result line: %w", err)
	}
	return rec, nil
}

// summarize prints, per end-to-end metric, each set's median and quartiles
// and the change of B's median against A's. It refuses records from
// different machines or of different workloads: their timings do not
// compare.
func summarize(w io.Writer, recs []record) error {
	if len(recs) == 0 {
		return fmt.Errorf("no records")
	}
	first := recs[0].Meta
	for _, r := range recs[1:] {
		if r.Meta.machine() != first.machine() {
			return fmt.Errorf("refusing to compare runs from different machines:\n  %s\n  %s", first.machine(), r.Meta.machine())
		}
		if r.Meta.Workload != first.Workload {
			return fmt.Errorf("refusing to compare workloads %s and %s", first.Workload, r.Meta.Workload)
		}
	}
	sets := map[string][]record{}
	for _, r := range recs {
		sets[r.Set] = append(sets[r.Set], r)
	}
	fmt.Fprintf(w, "%s on %s\n", first.Workload, first.machine())
	fmt.Fprintf(w, "%-18s %-5s %28s %28s %8s %6s\n", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "B vs A", "bound")
	for _, d := range endToEnd {
		cells := make([]string, 2)
		meds := make([]float64, 2)
		for k, set := range []string{"A", "B"} {
			var xs []float64
			for _, r := range sets[set] {
				xs = append(xs, r.Result.Metrics[d.Name].Value)
			}
			if len(xs) == 0 {
				cells[k] = "-"
				continue
			}
			q1, med, q3 := quartiles(xs)
			meds[k] = med
			cells[k] = fmt.Sprintf("%.4g [%.4g, %.4g]", med, q1, q3)
		}
		delta := "-"
		if meds[0] != 0 && len(sets["B"]) > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(meds[1]/meds[0]-1))
		}
		fmt.Fprintf(w, "%-18s %-5s %28s %28s %8s %5.0f%%\n", d.Name, d.Unit, cells[0], cells[1], delta, 100*d.Bound)
	}
	failed := 0
	for _, r := range recs {
		failed += r.Result.Failed
	}
	fmt.Fprintf(w, "%d runs, %d failed ops\n", len(recs), failed)
	return nil
}
