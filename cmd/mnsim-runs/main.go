// Command mnsim-runs inspects and compares the structured run manifests
// (run.json) the other MNSIM CLIs write with -run-out. It is the
// mechanical substrate for tracking performance and result drift across
// runs and across PRs: "diff" compares two manifests metric by metric and
// phase by phase and flags deltas beyond a threshold, "show" summarises a
// single manifest.
//
// Usage:
//
//	mnsim-runs show run.json
//	mnsim-runs diff [-threshold 0.10] [-fail] old/run.json new/run.json
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"mnsim/internal/report"
	"mnsim/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "diff":
		err = diffMain(os.Args[2:])
	case "show":
		err = showMain(os.Args[2:])
	case "help", "-h", "-help", "--help":
		usage(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "mnsim-runs: unknown subcommand %q\n", os.Args[1])
		usage(os.Stderr)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mnsim-runs:", err)
		os.Exit(1)
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage:
  mnsim-runs show run.json
  mnsim-runs diff [-threshold 0.10] [-fail] old-run.json new-run.json

"diff" compares every counter, gauge, histogram, and span phase of two
run manifests; deltas beyond -threshold (relative) are flagged with '!',
except on wall-time rows (wall_seconds, phase_us) under 100 ms in both runs
and on the means of timing histograms (names ending _us or _seconds) whose
sums are under 100 ms in both runs.
With -fail the exit status is 3 when any delta is flagged, for CI gates.`)
}

func showMain(args []string) error {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("show wants exactly one manifest path")
	}
	return runShow(os.Stdout, fs.Arg(0))
}

func runShow(w io.Writer, path string) error {
	m, err := telemetry.LoadManifest(path)
	if err != nil {
		return err
	}
	tab := &report.Table{Title: "Run manifest " + path, Headers: []string{"Field", "Value"}}
	tab.AddRow("Tool", m.Tool)
	tab.AddRow("Args", fmt.Sprintf("%v", m.Args))
	if m.ConfigHash != "" {
		tab.AddRow("Config hash", m.ConfigHash)
	}
	if m.Seed != nil {
		tab.AddRow("Seed", fmt.Sprint(*m.Seed))
	}
	if m.Workers != 0 {
		tab.AddRow("Workers", m.Workers)
	}
	tab.AddRow("Go / platform", fmt.Sprintf("%s %s/%s", m.GoVersion, m.OS, m.Arch))
	tab.AddRow("Started", m.StartTime.Format("2006-01-02 15:04:05 MST"))
	tab.AddRow("Wall time", report.Seconds(m.WallSeconds))
	status := "ok"
	if m.ExitStatus != 0 {
		status = fmt.Sprintf("%d (%s)", m.ExitStatus, m.Error)
	}
	tab.AddRow("Exit", status)
	// Artifact paths the run recorded (journal, metrics, trace_events, …),
	// so the manifest is the one index for everything the run wrote.
	arts := make([]string, 0, len(m.Artifacts))
	for kind := range m.Artifacts {
		arts = append(arts, kind)
	}
	sort.Strings(arts)
	for _, kind := range arts {
		tab.AddRow("Artifact: "+kind, m.Artifacts[kind])
	}
	if err := tab.Render(w); err != nil {
		return err
	}
	if len(m.Phases) == 0 {
		return nil
	}
	fmt.Fprintln(w)
	phases := append([]telemetry.SpanStat(nil), m.Phases...)
	sort.Slice(phases, func(i, j int) bool { return phases[i].TotalUS > phases[j].TotalUS })
	pt := &report.Table{
		Title:   "Phases by total wall time",
		Headers: []string{"Phase", "Count", "Total", "Avg"},
	}
	for _, p := range phases {
		pt.AddRow(p.Name, p.Count, report.Seconds(p.TotalUS/1e6), report.Seconds(p.AvgUS/1e6))
	}
	return pt.Render(w)
}

func diffMain(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	threshold := fs.Float64("threshold", 0.10,
		"relative delta beyond which a series is flagged (0.10 = 10%)")
	failFlag := fs.Bool("fail", false, "exit with status 3 when any delta is flagged")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("diff wants exactly two manifest paths")
	}
	flagged, err := runDiff(os.Stdout, fs.Arg(0), fs.Arg(1), *threshold)
	if err != nil {
		return err
	}
	if *failFlag && flagged > 0 {
		os.Exit(3)
	}
	return nil
}

// diffRow is one compared series.
type diffRow struct {
	kind, name string
	a, b       float64
	delta      float64 // relative; ±Inf when a == 0 and b != 0
	// only is "new" for a series only B has and "gone" for one only A
	// has; "" when both manifests have it.
	only    string
	flagged bool
}

// relDelta returns the relative change from a to b.
func relDelta(a, b float64) float64 {
	//lint:ignore nofloateq exact match (including 0==0) must report delta 0; any real difference falls through to the relative form
	if a == b {
		return 0
	}
	if a == 0 {
		return math.Inf(sign(b))
	}
	return (b - a) / math.Abs(a)
}

func sign(v float64) int {
	if v < 0 {
		return -1
	}
	return 1
}

// presence labels a series by which of the two maps holds it: "new" when
// only b does, "gone" when only a does, "" when both do.
func presence[V any](a, b map[string]V, name string) string {
	_, inA := a[name]
	_, inB := b[name]
	switch {
	case !inA:
		return "new"
	case !inB:
		return "gone"
	}
	return ""
}

// timeFloorSeconds is the wall time under which a timing row (the run's
// wall_seconds, a phase's total, or the mean of a timing histogram whose
// sums are under it) is never flagged: a run or phase that takes a few
// milliseconds moves by tens of percent with scheduling alone.
const timeFloorSeconds = 0.1

// reachesTimeFloor reports whether the larger of two timings, in a unit
// perSecond of which make a second, reaches timeFloorSeconds.
func reachesTimeFloor(a, b, perSecond float64) bool {
	return math.Max(math.Abs(a), math.Abs(b)) >= timeFloorSeconds*perSecond
}

// histogramUnit returns how many of a timing histogram's unit, named by
// its suffix, make a second, and 0 for a histogram of anything else.
func histogramUnit(name string) float64 {
	switch {
	case strings.HasSuffix(name, "_us"):
		return 1e6
	case strings.HasSuffix(name, "_seconds"):
		return 1
	}
	return 0
}

// diffManifests compares every shared (and one-sided) series of the two
// manifests: wall time, span phases (total wall time), counters, gauges,
// and histogram count/mean. Rows beyond threshold, and one-sided rows, are
// flagged, except timing rows under timeFloorSeconds.
func diffManifests(a, b telemetry.Manifest, threshold float64) []diffRow {
	var rows []diffRow
	// timed is false for a timing row under the floor, whose delta is not
	// flagged.
	add := func(kind, name, only string, av, bv float64, timed bool) {
		d := relDelta(av, bv)
		rows = append(rows, diffRow{
			kind: kind, name: name, a: av, b: bv, delta: d, only: only,
			flagged: only != "" || (math.Abs(d) > threshold && timed),
		})
	}
	add("run", "wall_seconds", "", a.WallSeconds, b.WallSeconds, reachesTimeFloor(a.WallSeconds, b.WallSeconds, 1))

	aPhases := map[string]telemetry.SpanStat{}
	for _, p := range a.Phases {
		aPhases[p.Name] = p
	}
	bPhases := map[string]telemetry.SpanStat{}
	for _, p := range b.Phases {
		bPhases[p.Name] = p
	}
	for _, name := range sortedKeys(aPhases, bPhases) {
		av, bv := aPhases[name].TotalUS, bPhases[name].TotalUS
		add("phase_us", name, presence(aPhases, bPhases, name), av, bv, reachesTimeFloor(av, bv, 1e6))
	}
	for _, name := range sortedKeys(a.Metrics.Counters, b.Metrics.Counters) {
		add("counter", name, presence(a.Metrics.Counters, b.Metrics.Counters, name),
			float64(a.Metrics.Counters[name]), float64(b.Metrics.Counters[name]), true)
	}
	for _, name := range sortedKeys(a.Metrics.Gauges, b.Metrics.Gauges) {
		add("gauge", name, presence(a.Metrics.Gauges, b.Metrics.Gauges, name),
			a.Metrics.Gauges[name], b.Metrics.Gauges[name], true)
	}
	hmean := func(h telemetry.HistogramSnapshot) float64 {
		if h.Count == 0 {
			return 0
		}
		return h.Sum / float64(h.Count)
	}
	for _, name := range sortedKeys(a.Metrics.Histograms, b.Metrics.Histograms) {
		ah, bh := a.Metrics.Histograms[name], b.Metrics.Histograms[name]
		only := presence(a.Metrics.Histograms, b.Metrics.Histograms, name)
		add("hist_count", name, only, float64(ah.Count), float64(bh.Count), true)
		unit := histogramUnit(name)
		add("hist_mean", name, only, hmean(ah), hmean(bh), unit == 0 || reachesTimeFloor(ah.Sum, bh.Sum, unit))
	}
	return rows
}

// sortedKeys returns the sorted union of both maps' keys.
func sortedKeys[V any](a, b map[string]V) []string {
	seen := map[string]bool{}
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func runDiff(w io.Writer, aPath, bPath string, threshold float64) (flagged int, err error) {
	a, err := telemetry.LoadManifest(aPath)
	if err != nil {
		return 0, err
	}
	b, err := telemetry.LoadManifest(bPath)
	if err != nil {
		return 0, err
	}
	if a.ConfigHash != "" && b.ConfigHash != "" && a.ConfigHash != b.ConfigHash {
		fmt.Fprintf(w, "note: config hashes differ (%s vs %s) — the runs simulated different workloads\n\n",
			a.ConfigHash, b.ConfigHash)
	}
	rows := diffManifests(a, b, threshold)
	tab := &report.Table{
		Title:   fmt.Sprintf("Manifest diff: %s -> %s (threshold %.0f%%)", aPath, bPath, threshold*100),
		Headers: []string{"Kind", "Series", "A", "B", "Delta", ""},
	}
	for _, r := range rows {
		if r.a == 0 && r.b == 0 {
			continue // nothing to say about an all-zero series
		}
		mark := ""
		if r.flagged {
			mark = "!"
			flagged++
		}
		tab.AddRow(r.kind, r.name,
			fmt.Sprintf("%.6g", r.a), fmt.Sprintf("%.6g", r.b),
			formatDelta(r), mark)
	}
	if err := tab.Render(w); err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "\n%d series beyond the ±%.0f%% threshold\n", flagged, threshold*100)
	return flagged, nil
}

// formatDelta prints a row's relative change, or "new"/"gone" for a
// one-sided series; a series both runs have that left 0 reads "from 0".
func formatDelta(r diffRow) string {
	switch {
	case r.only != "":
		return r.only
	case math.IsInf(r.delta, 0):
		return "from 0"
	}
	return fmt.Sprintf("%+.1f%%", r.delta*100)
}
