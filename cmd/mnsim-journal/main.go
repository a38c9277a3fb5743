// Command mnsim-journal analyzes flight-recorder journals (-journal on any
// mnsim CLI): per-event and per-span statistics, the slowest solves with
// their cost-model breakdown, convergence outliers, per-candidate causal
// timelines, and post-hoc conversion of any journaled run into a Chrome
// trace-event file for Perfetto.
//
// Usage:
//
//	mnsim-journal summarize run.jsonl              # per-type / per-span stats
//	mnsim-journal slowest -n 5 run.jsonl           # slowest solves + cost breakdown
//	mnsim-journal outliers run.jsonl               # stagnated / decay-anomalous solves
//	mnsim-journal resources run.jsonl              # resource samples + spike/solve correlation
//	mnsim-journal timeline cand-64x16@45 run.jsonl # one candidate's causal chain
//	mnsim-journal export -o trace.json run.jsonl   # journal -> Chrome trace events
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"mnsim/internal/circuit"
	"mnsim/internal/report"
	"mnsim/internal/telemetry"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mnsim-journal:", err)
		os.Exit(1)
	}
}

func usage() error {
	return fmt.Errorf(`usage:
  mnsim-journal summarize <journal.jsonl>
  mnsim-journal slowest [-n 10] <journal.jsonl>
  mnsim-journal outliers <journal.jsonl>
  mnsim-journal resources [-n 5] <journal.jsonl>
  mnsim-journal timeline <candidate-id> <journal.jsonl>
  mnsim-journal export [-o trace.json] <journal.jsonl>`)
}

func run(w io.Writer, args []string) error {
	if len(args) < 1 {
		return usage()
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "summarize":
		if len(rest) != 1 {
			return usage()
		}
		return summarize(w, rest[0])
	case "slowest":
		fs := flag.NewFlagSet("slowest", flag.ContinueOnError)
		n := fs.Int("n", 10, "how many solves to list")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if fs.NArg() != 1 {
			return usage()
		}
		return slowest(w, fs.Arg(0), *n)
	case "outliers":
		if len(rest) != 1 {
			return usage()
		}
		return outliers(w, rest[0])
	case "resources":
		fs := flag.NewFlagSet("resources", flag.ContinueOnError)
		n := fs.Int("n", 5, "how many slow solves to correlate against resource spikes")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if fs.NArg() != 1 {
			return usage()
		}
		return resources(w, fs.Arg(0), *n)
	case "timeline":
		if len(rest) != 2 {
			return usage()
		}
		return timeline(w, rest[1], rest[0])
	case "export":
		fs := flag.NewFlagSet("export", flag.ContinueOnError)
		out := fs.String("o", "trace.json", "output Chrome trace-event file")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if fs.NArg() != 1 {
			return usage()
		}
		return export(w, fs.Arg(0), *out)
	default:
		return usage()
	}
}

// loadSolves reads a journal's solve_end events and refuses a journal
// without any. Like every subcommand's read, it passes a
// SchemaVersionError through untouched, so main prints its message.
func loadSolves(path string) ([]solveEnd, error) {
	events, err := telemetry.ReadJournalFile(path)
	if err != nil {
		return nil, err
	}
	solves, err := solveEnds(events)
	if err == nil && len(solves) == 0 {
		err = fmt.Errorf("%s: no solve_end events", path)
	}
	return solves, err
}

// --- summarize --------------------------------------------------------------

func summarize(w io.Writer, path string) error {
	events, err := telemetry.ReadJournalFile(path)
	if err != nil {
		return err
	}
	if len(events) == 0 {
		return fmt.Errorf("%s: empty journal", path)
	}
	schema := "?"
	if v, ok := events[0].Data["schema_version"].(float64); ok {
		schema = fmt.Sprintf("%d", int(v))
	}
	wallMS := float64(events[len(events)-1].TNS-events[0].TNS) / 1e6
	fmt.Fprintf(w, "%s: %d events, schema v%s, %.1f ms span\n\n", path, len(events), schema, wallMS)

	byType := map[telemetry.EventType]int{}
	for _, ev := range events {
		byType[ev.Type]++
	}
	types := make([]string, 0, len(byType))
	for t := range byType {
		types = append(types, string(t))
	}
	sort.Strings(types)
	tt := &report.Table{Title: "Events by type", Headers: []string{"Type", "Count"}}
	for _, t := range types {
		tt.AddRow(t, byType[telemetry.EventType(t)])
	}
	if err := tt.Render(w); err != nil {
		return err
	}

	// Per-span-path wall-time aggregates, rebuilt from the journaled span
	// events — the post-hoc equivalent of the live /trace endpoint.
	type agg struct {
		count               int
		total, minUS, maxUS float64
	}
	spans := map[string]*agg{}
	for _, r := range telemetry.SpanRecordsFromEvents(events) {
		us := float64(r.DurNS) / 1e3
		a := spans[r.Path]
		if a == nil {
			a = &agg{minUS: us, maxUS: us}
			spans[r.Path] = a
		}
		a.count++
		a.total += us
		if us < a.minUS {
			a.minUS = us
		}
		if us > a.maxUS {
			a.maxUS = us
		}
	}
	if len(spans) > 0 {
		paths := make([]string, 0, len(spans))
		for p := range spans {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		st := &report.Table{Title: "Span phases", Headers: []string{"Path", "Count", "Total (ms)", "Avg (us)", "Max (us)"}}
		for _, p := range paths {
			a := spans[p]
			st.AddRow(p, a.count, fmt.Sprintf("%.2f", a.total/1e3),
				fmt.Sprintf("%.1f", a.total/float64(a.count)), fmt.Sprintf("%.1f", a.maxUS))
		}
		fmt.Fprintln(w)
		if err := st.Render(w); err != nil {
			return err
		}
	}

	solves, err := solveEnds(events)
	if err != nil {
		return err
	}
	if len(solves) > 0 {
		ok, stagnated := 0, 0
		var newton, cg, flops float64
		for _, s := range solves {
			if s.ok {
				ok++
			}
			if s.stagnated {
				stagnated++
			}
			newton += s.newton
			cg += s.cg
			flops += s.flops
		}
		fmt.Fprintf(w, "\nSolves: %d total, %d ok, %d failed, %d stagnated; %.0f Newton / %.0f CG iters, %.3g flops\n",
			len(solves), ok, len(solves)-ok, stagnated, newton, cg, flops)
	}

	if cands := candidateOutcomes(events); len(cands) > 0 {
		keys := make([]string, 0, len(cands))
		for k := range cands {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%d %s", cands[k], k))
		}
		fmt.Fprintf(w, "Candidates: %s\n", strings.Join(parts, ", "))
	}
	return nil
}

func candidateOutcomes(events []telemetry.Event) map[string]int {
	out := map[string]int{}
	for _, ev := range events {
		if ev.Type != telemetry.EvCandidateEval {
			continue
		}
		o, _ := ev.Data["outcome"].(string)
		if o == "" {
			o = "unknown"
		}
		out[o]++
	}
	return out
}

// --- solve extraction -------------------------------------------------------

// solveEnd is one solve_end event flattened for analysis.
type solveEnd struct {
	id                string
	tns               int64 // envelope time: the solve's end
	ok                bool
	durUS             float64
	newton, cg, flops float64
	decay             float64
	stagnated         bool
	phases            []int64 // flops per cost phase, in costPhases order
}

// solveEnds flattens the solve_end events; the cost and convergence
// columns come from the Diagnostics each carries (schema v3).
func solveEnds(events []telemetry.Event) ([]solveEnd, error) {
	var out []solveEnd
	for _, ev := range events {
		if ev.Type != telemetry.EvSolveEnd {
			continue
		}
		s := solveEnd{id: ev.ID, tns: ev.TNS}
		s.ok, _ = ev.Data["ok"].(bool)
		s.durUS, _ = ev.Data["dur_us"].(float64)
		s.newton, _ = ev.Data["newton_iters"].(float64)
		s.cg, _ = ev.Data["cg_iters"].(float64)
		d, err := circuit.JournaledDiagnostics(ev)
		if err != nil {
			return nil, err
		}
		if d != nil && d.Cost != nil {
			c := d.Cost
			s.phases = []int64{c.Assembly.Flops, c.NewtonUpdate.Flops, c.CGLoop.Flops, c.Precond.Flops, c.Diagnostics.Flops}
			s.flops = float64(c.Total().Flops)
		}
		if d != nil && d.Convergence != nil {
			s.decay, s.stagnated = d.Convergence.DecayRate, d.Convergence.Stagnated
		}
		out = append(out, s)
	}
	return out, nil
}

// costPhases names the cost-model breakdown columns.
var costPhases = []string{"Asm%", "NU%", "CG%", "Pre%", "Diag%"}

// --- slowest ----------------------------------------------------------------

func slowest(w io.Writer, path string, n int) error {
	solves, err := loadSolves(path)
	if err != nil {
		return err
	}
	sort.SliceStable(solves, func(i, j int) bool { return solves[i].durUS > solves[j].durUS })
	if n > len(solves) {
		n = len(solves)
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Slowest %d of %d solves", n, len(solves)),
		Headers: append([]string{"Solve", "Dur (us)", "OK", "Newton", "CG", "Flops"}, costPhases...),
	}
	for _, s := range solves[:n] {
		row := []any{s.id, fmt.Sprintf("%.1f", s.durUS), s.ok,
			int(s.newton), int(s.cg), fmt.Sprintf("%.3g", s.flops)}
		for i := range costPhases {
			if s.flops > 0 {
				row = append(row, fmt.Sprintf("%.0f", 100*float64(s.phases[i])/s.flops))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	return t.Render(w)
}

// --- outliers ---------------------------------------------------------------

func outliers(w io.Writer, path string) error {
	solves, err := loadSolves(path)
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   "Convergence outliers",
		Headers: []string{"Solve", "Reason", "Decay", "Newton", "CG", "Dur (us)"},
	}
	found := 0
	for _, s := range solves {
		var reasons []string
		if !s.ok {
			reasons = append(reasons, "failed")
		}
		if s.stagnated {
			reasons = append(reasons, "stagnated")
		}
		// A healthy Newton trajectory contracts well below 1; at or above
		// the solver's own stagnation ratio (0.9) the solve is burning
		// iterations without progress even if it eventually converged.
		if s.decay >= 0.9 {
			reasons = append(reasons, "slow-decay")
		}
		if len(reasons) == 0 {
			continue
		}
		found++
		t.AddRow(s.id, strings.Join(reasons, "+"), fmt.Sprintf("%.3f", s.decay),
			int(s.newton), int(s.cg), fmt.Sprintf("%.1f", s.durUS))
	}
	if found == 0 {
		fmt.Fprintf(w, "%d solves, no outliers (no failures, no stagnation, decay rates < 0.9)\n", len(solves))
		return nil
	}
	return t.Render(w)
}

// --- resources --------------------------------------------------------------

// resSample is one resource_sample event flattened for analysis.
type resSample struct {
	tns        int64
	heapLive   uint64
	heapGoal   uint64
	allocB     uint64
	allocO     uint64
	goroutines int64
	gcCycles   uint64
	gcPauseNS  int64
	gcFrac     float64
	schedP99US float64
}

func resourceSamples(events []telemetry.Event) []resSample {
	var out []resSample
	u64 := func(d map[string]any, k string) uint64 {
		f, _ := d[k].(float64)
		if f < 0 {
			return 0
		}
		return uint64(f)
	}
	for _, ev := range events {
		if ev.Type != telemetry.EvResourceSample {
			continue
		}
		s := resSample{tns: ev.TNS}
		s.heapLive = u64(ev.Data, "heap_live_bytes")
		s.heapGoal = u64(ev.Data, "heap_goal_bytes")
		s.allocB = u64(ev.Data, "total_alloc_bytes")
		s.allocO = u64(ev.Data, "total_alloc_objects")
		s.goroutines = int64(u64(ev.Data, "goroutines"))
		s.gcCycles = u64(ev.Data, "gc_cycles")
		s.gcPauseNS = int64(u64(ev.Data, "gc_pause_total_ns"))
		s.gcFrac, _ = ev.Data["gc_cpu_fraction"].(float64)
		s.schedP99US, _ = ev.Data["sched_latency_p99_us"].(float64)
		out = append(out, s)
	}
	return out
}

// resources summarizes the resource_sample stream — peaks, run-scoped
// allocation/GC deltas, pressure and stall counts — then correlates the
// slowest solves with the runtime state around them: for each of the top-n
// solves, the peak live heap and the GC cycles retired inside the solve's
// wall-clock window. A solve that is slow *and* coincides with a heap spike
// or a GC burst is memory-bound, not math-bound.
func resources(w io.Writer, path string, n int) error {
	events, err := telemetry.ReadJournalFile(path)
	if err != nil {
		return err
	}
	samples := resourceSamples(events)
	if len(samples) == 0 {
		return fmt.Errorf("%s: no resource_sample events (run with -resource-interval)", path)
	}
	first, last := samples[0], samples[len(samples)-1]
	var peakHeap uint64
	var maxGoroutines int64
	var maxSchedP99 float64
	for _, s := range samples {
		if s.heapLive > peakHeap {
			peakHeap = s.heapLive
		}
		if s.goroutines > maxGoroutines {
			maxGoroutines = s.goroutines
		}
		if s.schedP99US > maxSchedP99 {
			maxSchedP99 = s.schedP99US
		}
	}
	pressures, stalls := 0, 0
	for _, ev := range events {
		switch ev.Type {
		case telemetry.EvMemPressure:
			pressures++
		case telemetry.EvWatchdogStall:
			stalls++
		}
	}
	spanMS := float64(last.tns-first.tns) / 1e6
	t := &report.Table{Title: "Resource samples", Headers: []string{"Metric", "Value"}}
	t.AddRow("Samples", len(samples))
	t.AddRow("Span", fmt.Sprintf("%.1f ms", spanMS))
	t.AddRow("Peak live heap", telemetry.FormatByteSize(peakHeap))
	t.AddRow("Final heap goal", telemetry.FormatByteSize(last.heapGoal))
	t.AddRow("Max goroutines", maxGoroutines)
	t.AddRow("Allocated", fmt.Sprintf("%s (%d objects)",
		telemetry.FormatByteSize(last.allocB-first.allocB), last.allocO-first.allocO))
	t.AddRow("GC cycles", last.gcCycles-first.gcCycles)
	t.AddRow("GC pause", fmt.Sprintf("%.3f ms", float64(last.gcPauseNS-first.gcPauseNS)/1e6))
	t.AddRow("GC CPU fraction", fmt.Sprintf("%.4f", last.gcFrac))
	t.AddRow("Max sched p99", fmt.Sprintf("%.1f us", maxSchedP99))
	t.AddRow("Mem pressure events", pressures)
	t.AddRow("Watchdog stalls", stalls)
	if err := t.Render(w); err != nil {
		return err
	}

	solves, err := solveEnds(events)
	if err != nil || len(solves) == 0 {
		return err
	}
	sort.SliceStable(solves, func(i, j int) bool { return solves[i].durUS > solves[j].durUS })
	if n > len(solves) {
		n = len(solves)
	}
	ct := &report.Table{
		Title:   fmt.Sprintf("Slowest %d solves vs runtime state", n),
		Headers: []string{"Solve", "Dur (us)", "Heap in window", "GC cycles", "Goroutines"},
	}
	for _, s := range solves[:n] {
		end := s.tns
		start := end - int64(s.durUS*1e3)
		// Samples inside the solve window, widened to the bracketing samples
		// so short solves between two ticks still get runtime context.
		lo := sort.Search(len(samples), func(i int) bool { return samples[i].tns >= start })
		hi := sort.Search(len(samples), func(i int) bool { return samples[i].tns > end })
		if lo > 0 {
			lo--
		}
		if hi >= len(samples) {
			hi = len(samples) - 1
		}
		var heap uint64
		var gor int64
		for _, smp := range samples[lo : hi+1] {
			if smp.heapLive > heap {
				heap = smp.heapLive
			}
			if smp.goroutines > gor {
				gor = smp.goroutines
			}
		}
		cycles := samples[hi].gcCycles - samples[lo].gcCycles
		ct.AddRow(s.id, fmt.Sprintf("%.1f", s.durUS), telemetry.FormatByteSize(heap), cycles, gor)
	}
	fmt.Fprintln(w)
	return ct.Render(w)
}

// --- timeline ---------------------------------------------------------------

// timeline reconstructs one candidate's causal chain: the candidate span,
// every descendant span (solves and their phases), and every event stamped
// with a span ID inside that subtree, in chronological order.
func timeline(w io.Writer, path, candidate string) error {
	events, err := telemetry.ReadJournalFile(path)
	if err != nil {
		return err
	}
	// The candidate_eval event names the candidate; its span_id stamp roots
	// the subtree.
	rootID := ""
	for _, ev := range events {
		if ev.Type == telemetry.EvCandidateEval && ev.ID == candidate {
			rootID, _ = ev.Data["span_id"].(string)
			break
		}
	}
	if rootID == "" {
		var known []string
		for _, ev := range events {
			if ev.Type == telemetry.EvCandidateEval {
				known = append(known, ev.ID)
			}
		}
		if len(known) == 0 {
			return fmt.Errorf("%s: no candidate_eval events (not a DSE journal, or recorded before schema v2)", path)
		}
		sort.Strings(known)
		return fmt.Errorf("%s: no candidate %q; journal has: %s", path, candidate, strings.Join(known, ", "))
	}
	recs := telemetry.SpanRecordsFromEvents(events)
	byID := map[string]telemetry.SpanRecord{}
	children := map[string][]string{}
	for _, r := range recs {
		id := telemetry.FormatID(r.SpanID)
		byID[id] = r
		if r.ParentID != 0 {
			p := telemetry.FormatID(r.ParentID)
			children[p] = append(children[p], id)
		}
	}
	root, ok := byID[rootID]
	if !ok {
		return fmt.Errorf("%s: candidate %s has span %s but no span event (journal truncated?)", path, candidate, rootID)
	}
	// Collect the subtree.
	inTree := map[string]bool{rootID: true}
	queue := []string{rootID}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		kids := children[id]
		sort.Slice(kids, func(i, j int) bool { return byID[kids[i]].StartNS < byID[kids[j]].StartNS })
		for _, k := range kids {
			if !inTree[k] {
				inTree[k] = true
				queue = append(queue, k)
			}
		}
	}
	fmt.Fprintf(w, "candidate %s  trace %s  span %s  %.2f ms\n",
		candidate, telemetry.FormatID(root.TraceID), rootID, float64(root.DurNS)/1e6)
	// One chronological listing: spans open at their start time, events at
	// their envelope time, all relative to the candidate start.
	type line struct {
		tns   int64
		depth int
		text  string
	}
	var lines []line
	var depthOf func(id string) int
	depthOf = func(id string) int {
		r := byID[id]
		p := telemetry.FormatID(r.ParentID)
		if r.ParentID == 0 || !inTree[p] {
			return 0
		}
		return 1 + depthOf(p)
	}
	for id := range inTree {
		r := byID[id]
		lines = append(lines, line{
			tns:   r.StartNS,
			depth: depthOf(id),
			text:  fmt.Sprintf("[span] %-24s %10.1f us", r.Name, float64(r.DurNS)/1e3),
		})
	}
	for _, ev := range events {
		if ev.Type == telemetry.EvSpan {
			continue
		}
		sid, _ := ev.Data["span_id"].(string)
		if !inTree[sid] {
			continue
		}
		text := fmt.Sprintf("%s %s", ev.Type, ev.ID)
		switch ev.Type {
		case telemetry.EvSolveEnd:
			text = fmt.Sprintf("%s %s ok=%v newton=%v cg=%v", ev.Type, ev.ID,
				ev.Data["ok"], ev.Data["newton_iters"], ev.Data["cg_iters"])
		case telemetry.EvCandidateEval:
			text = fmt.Sprintf("%s %s outcome=%v", ev.Type, ev.ID, ev.Data["outcome"])
		}
		depth := depthOf(sid) + 1
		lines = append(lines, line{tns: ev.TNS, depth: depth, text: text})
		if ev.Type != telemetry.EvSolveEnd {
			continue
		}
		// The solve's Newton trajectory, one line per step under its record.
		d, err := circuit.JournaledDiagnostics(ev)
		if err != nil {
			return err
		}
		for i := 0; d != nil && i < len(d.Residuals) && i < len(d.CGIters); i++ {
			lines = append(lines, line{tns: ev.TNS, depth: depth + 1,
				text: fmt.Sprintf("newton %d cg=%d max_dv=%.3g", i, d.CGIters[i], d.Residuals[i])})
		}
	}
	sort.SliceStable(lines, func(i, j int) bool { return lines[i].tns < lines[j].tns })
	t0 := root.StartNS
	for _, l := range lines {
		fmt.Fprintf(w, "%10.1f us  %s%s\n", float64(l.tns-t0)/1e3, strings.Repeat("  ", l.depth), l.text)
	}
	return nil
}

// --- export -----------------------------------------------------------------

func export(w io.Writer, path, out string) error {
	events, err := telemetry.ReadJournalFile(path)
	if err != nil {
		return err
	}
	recs := telemetry.SpanRecordsFromEvents(events)
	if len(recs) == 0 {
		return fmt.Errorf("%s: no span events to export (recorded before schema v2, or tracing was off)", path)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	werr := telemetry.WriteTraceEventsTo(f, recs)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	fmt.Fprintf(w, "exported %d spans to %s (open in Perfetto or chrome://tracing)\n", len(recs), out)
	return nil
}
