// Command mnsim-journal analyzes flight-recorder journals (-journal on any
// mnsim CLI): per-event and per-span statistics, the slowest solves with
// their cost-model breakdown, convergence outliers, per-candidate causal
// timelines, and post-hoc conversion of any journaled run into a Chrome
// trace-event file for Perfetto.
//
// A solve_end, transient_settle or mc_trial event's id is the 16-hex ID of
// the span it ran in (its data's span_id). An id is an opaque string here,
// so journals that numbered solves "solve-N" read alike.
//
// Usage:
//
//	mnsim-journal summarize run.jsonl              # per-type / per-span stats
//	mnsim-journal slowest -n 5 run.jsonl           # slowest solves + cost breakdown
//	mnsim-journal outliers run.jsonl               # stagnated / decay-anomalous solves
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
	"mnsim/internal/dse"
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
  mnsim-journal timeline <candidate-id> <journal.jsonl>
  mnsim-journal export [-o trace.json] <journal.jsonl>

A solve is named by the 16-hex ID of its circuit.solve span (the span_id
in its solve_end data and in export's trace args); a candidate by its
candidate ID (cand-64x16@45).`)
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
func loadSolves(path string) ([]solve, error) {
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
	var h telemetry.JournalHeader
	if events[0].Decode(&h) == nil && h.SchemaVersion != 0 {
		schema = fmt.Sprint(h.SchemaVersion)
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
	if stats := telemetry.SpanStats(telemetry.SpanEvents(events)); len(stats) > 0 {
		st := &report.Table{Title: "Span phases", Headers: []string{"Path", "Count", "Total (ms)", "Avg (us)", "Max (us)"}}
		for _, a := range stats {
			st.AddRow(a.Name, a.Count, fmt.Sprintf("%.2f", a.TotalUS/1e3),
				fmt.Sprintf("%.1f", a.AvgUS), fmt.Sprintf("%.1f", a.MaxUS))
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
		ok, stagnated, newton, cg := 0, 0, 0, 0
		var flops float64
		for _, s := range solves {
			if s.OK {
				ok++
			}
			if s.convergence().Stagnated {
				stagnated++
			}
			n, c := s.iters()
			newton += n
			cg += c
			flops += s.flops()
		}
		fmt.Fprintf(w, "\nSolves: %d total, %d ok, %d failed, %d stagnated; %d Newton / %d CG iters, %.3g flops\n",
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
		var c dse.CandidateEval
		if ev.Type != telemetry.EvCandidateEval {
			continue
		}
		if ev.Decode(&c) != nil || c.Outcome == "" {
			c.Outcome = "unknown"
		}
		out[c.Outcome]++
	}
	return out
}

// --- solve extraction -------------------------------------------------------

// solve is one solve_end event: its envelope's ID and its payload.
type solve struct {
	id string
	circuit.SolveEnd
}

// solveEnds decodes the solve_end events.
func solveEnds(events []telemetry.Event) ([]solve, error) {
	var out []solve
	for _, ev := range events {
		if ev.Type != telemetry.EvSolveEnd {
			continue
		}
		s := solve{id: ev.ID}
		if err := ev.Decode(&s.SolveEnd); err != nil {
			return nil, fmt.Errorf("solve_end %s: %w", ev.ID, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// iters returns the solve's Newton and CG iteration counts; a solve that
// returned no result has none.
func (s *solve) iters() (newton, cg int) {
	if s.NewtonIters != nil {
		newton = *s.NewtonIters
	}
	if s.CGIters != nil {
		cg = *s.CGIters
	}
	return newton, cg
}

// flops returns the solve's cost-model flops in total, zero for a solve_end
// without diagnostics (before schema v3).
func (s *solve) flops() float64 {
	if s.Diag == nil {
		return 0
	}
	return float64(s.Diag.Cost.Total().Flops)
}

// convergence returns the solve's convergence analytics, zero when its
// solve_end carries none.
func (s *solve) convergence() circuit.Convergence {
	if s.Diag == nil || s.Diag.Convergence == nil {
		return circuit.Convergence{}
	}
	return *s.Diag.Convergence
}

// costPhases names the cost-model breakdown columns.
var costPhases = []string{"Asm%", "NU%", "CG%", "Pre%", "Diag%"}

// --- slowest ----------------------------------------------------------------

func slowest(w io.Writer, path string, n int) error {
	solves, err := loadSolves(path)
	if err != nil {
		return err
	}
	sort.SliceStable(solves, func(i, j int) bool { return solves[i].DurUS > solves[j].DurUS })
	if n > len(solves) {
		n = len(solves)
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Slowest %d of %d solves", n, len(solves)),
		Headers: append([]string{"Solve", "Dur (us)", "OK", "Newton", "CG", "Flops"}, costPhases...),
	}
	for _, s := range solves[:n] {
		newton, cg := s.iters()
		flops := s.flops()
		row := []any{s.id, fmt.Sprintf("%.1f", s.DurUS), s.OK, newton, cg, fmt.Sprintf("%.3g", flops)}
		if flops > 0 {
			c := s.Diag.Cost
			for _, f := range []int64{c.Assembly.Flops, c.NewtonUpdate.Flops, c.CGLoop.Flops, c.Precond.Flops, c.Diagnostics.Flops} {
				row = append(row, fmt.Sprintf("%.0f", 100*float64(f)/flops))
			}
		}
		for len(row) < len(t.Headers) {
			row = append(row, "-")
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
		conv := s.convergence()
		var reasons []string
		if !s.OK {
			reasons = append(reasons, "failed")
		}
		if conv.Stagnated {
			reasons = append(reasons, "stagnated")
		}
		// A healthy Newton trajectory contracts well below 1; at or above
		// the solver's own stagnation ratio (0.9) the solve is burning
		// iterations without progress even if it eventually converged.
		if conv.DecayRate >= 0.9 {
			reasons = append(reasons, "slow-decay")
		}
		if len(reasons) == 0 {
			continue
		}
		found++
		newton, cg := s.iters()
		t.AddRow(s.id, strings.Join(reasons, "+"), fmt.Sprintf("%.3f", conv.DecayRate),
			newton, cg, fmt.Sprintf("%.1f", s.DurUS))
	}
	if found == 0 {
		fmt.Fprintf(w, "%d solves, no outliers (no failures, no stagnation, decay rates < 0.9)\n", len(solves))
		return nil
	}
	return t.Render(w)
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
	// The candidate_eval event names the candidate; its span ID roots the
	// subtree.
	var rootID telemetry.ID
	for _, ev := range events {
		var c dse.CandidateEval
		if ev.Type == telemetry.EvCandidateEval && ev.ID == candidate && ev.Decode(&c) == nil {
			rootID = c.Span
			break
		}
	}
	if rootID == 0 {
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
	recs := telemetry.SpanEvents(events)
	byID := make(map[telemetry.ID]telemetry.SpanEvent, len(recs))
	children := map[telemetry.ID][]telemetry.ID{}
	for _, r := range recs {
		byID[r.Span] = r
		if r.Parent != 0 {
			children[r.Parent] = append(children[r.Parent], r.Span)
		}
	}
	root, ok := byID[rootID]
	if !ok {
		return fmt.Errorf("%s: candidate %s has span %s but no span event (journal truncated?)",
			path, candidate, telemetry.FormatID(uint64(rootID)))
	}
	// Collect the subtree.
	inTree := map[telemetry.ID]bool{rootID: true}
	queue := []telemetry.ID{rootID}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		kids := children[id]
		sort.Slice(kids, func(i, j int) bool { return byID[kids[i]].StartUS < byID[kids[j]].StartUS })
		for _, k := range kids {
			if !inTree[k] {
				inTree[k] = true
				queue = append(queue, k)
			}
		}
	}
	fmt.Fprintf(w, "candidate %s  trace %s  span %s  %.2f ms\n",
		candidate, telemetry.FormatID(uint64(root.Trace)), telemetry.FormatID(uint64(rootID)), root.DurUS/1e3)
	// One chronological listing: spans open at their start time, events at
	// their envelope time, all relative to the candidate start.
	type line struct {
		us    float64
		depth int
		text  string
	}
	var lines []line
	// depthOf counts a span's ancestors inside the subtree. Like
	// assignLanes' walk it is bounded: a parent chain longer than the
	// subtree is a cycle (corrupt input).
	depthOf := func(id telemetry.ID) int {
		d := 0
		for p := byID[id].Parent; p != 0 && inTree[p] && d < len(inTree); p = byID[p].Parent {
			d++
		}
		return d
	}
	for id := range inTree {
		r := byID[id]
		lines = append(lines, line{
			us:    r.StartUS,
			depth: depthOf(id),
			text:  fmt.Sprintf("[span] %-24s %10.1f us", r.Name, r.DurUS),
		})
	}
	for _, ev := range events {
		var ids telemetry.SpanIDs
		if ev.Type == telemetry.EvSpan || ev.Decode(&ids) != nil || !inTree[ids.Span] {
			continue
		}
		depth := depthOf(ids.Span) + 1
		text := fmt.Sprintf("%s %s", ev.Type, ev.ID)
		var s solve
		switch ev.Type {
		case telemetry.EvSolveEnd:
			if err := ev.Decode(&s.SolveEnd); err != nil {
				return fmt.Errorf("solve_end %s: %w", ev.ID, err)
			}
			newton, cg := s.iters()
			text = fmt.Sprintf("%s %s ok=%v newton=%d cg=%d", ev.Type, ev.ID, s.OK, newton, cg)
		case telemetry.EvCandidateEval:
			var c dse.CandidateEval
			if err := ev.Decode(&c); err != nil {
				return fmt.Errorf("candidate_eval %s: %w", ev.ID, err)
			}
			text = fmt.Sprintf("%s %s outcome=%s", ev.Type, ev.ID, c.Outcome)
		}
		lines = append(lines, line{us: float64(ev.TNS) / 1e3, depth: depth, text: text})
		// A solve's Newton trajectory, one line per step under its record.
		for i := 0; s.Diag != nil && i < len(s.Diag.Residuals) && i < len(s.Diag.CGIters); i++ {
			lines = append(lines, line{us: float64(ev.TNS) / 1e3, depth: depth + 1,
				text: fmt.Sprintf("newton %d cg=%d max_dv=%.3g", i, s.Diag.CGIters[i], s.Diag.Residuals[i])})
		}
	}
	sort.SliceStable(lines, func(i, j int) bool { return lines[i].us < lines[j].us })
	for _, l := range lines {
		fmt.Fprintf(w, "%10.1f us  %s%s\n", l.us-root.StartUS, strings.Repeat("  ", l.depth), l.text)
	}
	return nil
}

// --- export -----------------------------------------------------------------

func export(w io.Writer, path, out string) error {
	events, err := telemetry.ReadJournalFile(path)
	if err != nil {
		return err
	}
	recs := telemetry.SpanEvents(events)
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
