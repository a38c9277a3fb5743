// Package dse implements MNSIM's design-space exploration (Section VII.C/D
// of the paper): a traversal over crossbar size, computation parallelism
// degree, and interconnect technology node, with an error-rate constraint
// and per-metric optimal selection. The high simulation speed of the
// behaviour-level models makes exhaustive traversal practical ("All the
// 10,220 designs are simulated within 4 seconds").
package dse

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mnsim/internal/arch"
	"mnsim/internal/pool"
	"mnsim/internal/tech"
	"mnsim/internal/telemetry"
)

// Exploration telemetry: grid-point outcome counters plus a per-candidate
// evaluation-time histogram (microseconds). The paper's "10,220 designs in
// 4 seconds" claim is exactly the product of these two numbers.
var (
	telCandidates  = telemetry.GetCounter("mnsim_dse_candidates_total")
	telFeasible    = telemetry.GetCounter("mnsim_dse_candidates_feasible_total")
	telInfeasible  = telemetry.GetCounter("mnsim_dse_candidates_infeasible_total")
	telUnbuildable = telemetry.GetCounter("mnsim_dse_candidates_unbuildable_total")
	telEvalFailed  = telemetry.GetCounter("mnsim_dse_candidates_evalfailed_total")
	telEvalUS      = telemetry.GetHistogram("mnsim_dse_candidate_eval_us", telemetry.ExponentialBuckets(1, 4, 10))
)

// Space is the parameter grid to traverse.
type Space struct {
	// CrossbarSizes lists the crossbar dimensions to try.
	CrossbarSizes []int
	// Parallelisms lists the read-circuit counts p to try; values above a
	// candidate's column count are skipped for that size.
	Parallelisms []int
	// WireNodes lists interconnect technology nodes (nm).
	WireNodes []int
}

// DefaultSpace reproduces the paper's large-bank exploration ranges:
// crossbar size doubling from 4 to 1024, parallelism degree 1–128 plus the
// fully-parallel point, interconnect from {18,22,28,36,45} nm.
func DefaultSpace() Space {
	return Space{
		CrossbarSizes: []int{4, 8, 16, 32, 64, 128, 256, 512, 1024},
		Parallelisms:  []int{1, 2, 4, 8, 16, 32, 64, 128, 256},
		WireNodes:     []int{18, 22, 28, 36, 45},
	}
}

// Candidate is one evaluated design point.
type Candidate struct {
	CrossbarSize int
	Parallelism  int
	WireNode     int
	Report       arch.Report
	// Feasible is false when the design violates the error constraint; such
	// candidates are kept for trade-off plots but excluded from Best.
	Feasible bool
	// EvalTime is the wall time spent building and evaluating this design
	// point, as timed for the dse.explore/candidate telemetry span. The first
	// candidate of each (wire node, crossbar size) run also pays for
	// rebuilding the run's arch.Plan. Only a worker's first run grows the
	// plan and accelerator storage the worker reuses, unless a later run
	// needs more of it.
	EvalTime time.Duration
}

// Objective selects the optimization target of Best (Tables IV/VI columns).
type Objective int

const (
	// MinArea minimises layout area.
	MinArea Objective = iota
	// MinEnergy minimises energy per input sample.
	MinEnergy
	// MinLatency minimises the pipeline-cycle latency.
	MinLatency
	// MaxAccuracy minimises the output error rate.
	MaxAccuracy
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case MinArea:
		return "Area"
	case MinEnergy:
		return "Energy"
	case MinLatency:
		return "Latency"
	case MaxAccuracy:
		return "Accuracy"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// Objectives lists the four case-study optimization targets in table order.
func Objectives() []Objective {
	return []Objective{MinArea, MinEnergy, MinLatency, MaxAccuracy}
}

// metric extracts the (to-be-minimised) objective value of a candidate.
func (o Objective) metric(c *Candidate) float64 {
	switch o {
	case MinArea:
		return c.Report.AreaMM2
	case MinEnergy:
		return c.Report.EnergyPerSample
	case MinLatency:
		return c.Report.PipelineCycle
	case MaxAccuracy:
		return math.Abs(c.Report.ErrorWorst)
	default:
		return math.NaN()
	}
}

// Options tunes an exploration run.
type Options struct {
	// ErrorLimit is the feasibility constraint on the worst-case output
	// error rate (the paper uses 25% for the large bank, 50% for VGG-16).
	ErrorLimit float64
	// Interface is the accelerator I/O line pair.
	Interface [2]int
	// Workers bounds the goroutines evaluating grid points concurrently;
	// <= 0 selects runtime.GOMAXPROCS(0). The candidate list is
	// index-addressed, so any worker count produces the exact sequential
	// output order.
	Workers int
	// EvalSpin adds deterministic synthetic work to every candidate
	// evaluation: the given number of integer-mix rounds (a splitmix64-style
	// finalizer) seeded from the grid point, folded into an atomic sink so
	// the loop cannot be optimised away. A behaviour-level evaluation
	// (Plan.Into plus EvaluateContext on the worker's reused accelerator)
	// costs from ~0.13 µs (the one-layer large bank) to ~1–2 µs (VGG-16,
	// BenchmarkEvaluate's at-p in internal/arch) on a 2-CPU Xeon, plus
	// ~7–14 µs for rebuilding VGG-16's plan in the worker's reused storage
	// once per (wire node, crossbar size) run (plan/...), with no
	// allocation for either. The cost varies with the design and with a
	// candidate's place in its run, so scheduling benchmarks
	// (BenchmarkExplore) use this knob to give each candidate a measurable,
	// uniform, machine-independent cost. Zero disables it; the spin never
	// touches the evaluation result, so candidate lists are bit-identical
	// with and without it.
	EvalSpin int
	// FailEval injects one evaluation failure at the grid point named
	// "size:p:node" (e.g. "8:2:45") — a fault-injection hook so the
	// flight-recorder path (candidate_eval failure events, journal capture,
	// replay) can be exercised end-to-end without a degenerate design. An
	// unparsable spec fails the sweep; a spec naming a point outside the
	// space injects nothing.
	FailEval string
}

// failSpec is a parsed Options.FailEval grid point.
type failSpec struct{ size, p, node int }

func parseFailSpec(s string) (*failSpec, error) {
	if s == "" {
		return nil, nil
	}
	var f failSpec
	if _, err := fmt.Sscanf(s, "%d:%d:%d", &f.size, &f.p, &f.node); err != nil {
		return nil, fmt.Errorf("dse: bad FailEval spec %q, want size:p:node: %w", s, err)
	}
	return &f, nil
}

// errInjected tags Options.FailEval fault injections.
var errInjected = errors.New("injected evaluation failure")

// spinSink absorbs Options.EvalSpin results; an atomic package-level sink
// is the standard anti-elision anchor for synthetic busy work.
var spinSink atomic.Uint64

// spin runs the requested number of splitmix64 finalizer rounds over the
// seed: pure integer mixing with a loop-carried dependency, so the work is
// deterministic, unoptimisable, and takes the same time on every run.
func spin(seed uint64, rounds int) uint64 {
	x := seed
	for i := 0; i < rounds; i++ {
		x += 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}

// candID is the journal correlation id of one grid point, e.g. "cand-8x2@45",
// and the key of its candidate span's ID. It is built without fmt; a sweep
// builds it only for the journal and for a failure's message.
func candID(gp gridPoint) string {
	var buf [64]byte
	b := append(buf[:0], "cand-"...)
	b = strconv.AppendInt(b, int64(gp.size), 10)
	b = append(b, 'x')
	b = strconv.AppendInt(b, int64(gp.p), 10)
	b = append(b, '@')
	b = strconv.AppendInt(b, int64(gp.node), 10)
	return string(b)
}

// gridPoint is one (wire node, crossbar size, parallelism) tuple of the
// traversal, in sequential sweep order.
type gridPoint struct {
	size, p, node int
	wire          tech.WireTech
}

// run is the grid points of one (wire node, crossbar size) pair, one pool
// task: its gridPoint without a parallelism, and the sweep-order index of
// its first point. Its points are the space's parallelisms up to its size,
// in order.
type run struct {
	gridPoint
	first int
}

// errUnbuildable tags arch.NewPlan and Plan.Into failures (grid points
// outside the buildable space) apart from genuine evaluation failures.
var errUnbuildable = errors.New("unbuildable design point")

// evalCandidate builds the accelerator of one grid point from its run's
// plan into the run's reused accelerator a and evaluates it; a package
// variable so tests can inject evaluation failures without constructing a
// degenerate design.
var evalCandidate = func(ctx context.Context, pl *arch.Plan, p int, a *arch.Accelerator) (arch.Report, error) {
	if err := pl.Into(a, p); err != nil {
		return arch.Report{}, fmt.Errorf("%w: %w", errUnbuildable, err)
	}
	return a.EvaluateContext(ctx)
}

// runStorage is the storage one pool worker reuses across the runs it
// executes. A run is the grid points of one (wire node, crossbar size)
// pair, which differ only in parallelism: the run's first candidate
// rebuilds the design copy and the plan, and each candidate refills the
// accelerator, of which it keeps only the Report. The worker's candidate
// spans add up in its tally, which each run folds into the tracer once.
type runStorage struct {
	design arch.Design
	pl     arch.Plan
	err    error // the run's plan error
	acc    arch.Accelerator
	spans  telemetry.SpanTally
}

// CandidateEval is the data of a candidate_eval event: the outcome of one
// grid point, under the IDs of its candidate span. An evaluated point
// ("ok" or "infeasible") adds its evaluation time and figures of merit, a
// failed one ("eval_failed") its error and evaluation time; an unbuildable
// one has its outcome alone.
type CandidateEval struct {
	telemetry.SpanIDs
	Outcome string `json:"outcome"`
	Err     string `json:"err,omitempty"`
	EvalUS  *int64 `json:"eval_us,omitempty"`
	*CandidateFigures
}

// CandidateFigures are an evaluated grid point's figures of merit in its
// candidate_eval event.
type CandidateFigures struct {
	AreaMM2    float64 `json:"area_mm2"`
	EnergyJ    float64 `json:"energy_j"`
	LatencyS   float64 `json:"latency_s"`
	ErrorWorst float64 `json:"error_worst"`
}

// Explore traverses the space, evaluating one accelerator per grid point on
// a bounded worker pool (Options.Workers). The grid points of one (wire
// node, crossbar size) pair form a run: one pool task rebuilds an arch.Plan
// for the run once and fills each parallelism's accelerator from it. Each
// worker reuses one plan and one arch.Accelerator across its runs, held for
// the call only. The base design supplies everything except the three
// swept parameters. Grid points that cannot be built (e.g. a crossbar too
// small for one weight, which makes its whole run unbuildable) are skipped
// silently — they are outside the feasible space. Grid points whose
// evaluation fails are counted (mnsim_dse_candidates_evalfailed_total),
// logged, and skipped; Explore only errors out when every buildable point
// fails. Cancelling ctx aborts the sweep (including mid-Newton-loop in any
// circuit-level solve) and returns the context's error.
func Explore(ctx context.Context, base arch.Design, layers []arch.LayerDims, space Space, opt Options) ([]Candidate, error) {
	if opt.ErrorLimit <= 0 {
		opt.ErrorLimit = 0.25
	}
	if opt.Interface == ([2]int{}) {
		opt.Interface = [2]int{128, 128}
	}
	if len(space.CrossbarSizes) == 0 || len(space.Parallelisms) == 0 || len(space.WireNodes) == 0 {
		return nil, fmt.Errorf("dse: empty exploration space")
	}
	inject, err := parseFailSpec(opt.FailEval)
	if err != nil {
		return nil, err
	}
	// Resolve every wire node up front: an unknown node is a caller mistake
	// that fails the whole sweep, not a skippable grid point. A (wire node,
	// crossbar size) pair with no parallelism up to its size makes no run.
	runs := make([]run, 0, len(space.WireNodes)*len(space.CrossbarSizes))
	total := 0
	for _, node := range space.WireNodes {
		wire, err := tech.Interconnect(node)
		if err != nil {
			return nil, err
		}
		for _, size := range space.CrossbarSizes {
			n := 0
			for _, p := range space.Parallelisms {
				if p <= size {
					n++
				}
			}
			if n > 0 {
				runs = append(runs, run{gridPoint: gridPoint{size: size, node: node, wire: wire}, first: total})
				total += n
			}
		}
	}
	ctx, sweep := telemetry.StartSpan(ctx, "dse.explore")
	defer sweep.End()
	// Sweep phase: one tick per grid point, whatever its outcome, so the
	// journaled finish records how many points the sweep visited.
	prog := telemetry.StartPhase("dse.candidates", int64(total))
	defer prog.Finish()
	// Index-addressed result slots keep the output in sequential sweep
	// order no matter which worker finishes first; a zero CrossbarSize marks
	// a point that produced no candidate.
	results := make([]Candidate, total)
	var (
		evalFailed  atomic.Int64
		failMu      sync.Mutex
		lastEvalErr error
	)
	// explorePoint builds and evaluates grid point gp, the i-th in sweep
	// order, in rs; first marks the first point of its run.
	explorePoint := func(tctx context.Context, i int, gp gridPoint, first bool, rs *runStorage) error {
		// A non-blocking receive takes no lock, while Err takes the
		// context's mutex.
		select {
		case <-tctx.Done():
			return tctx.Err()
		default:
		}
		defer prog.Inc()
		start := rs.spans.Start()
		if first {
			rs.design = base
			rs.design.CrossbarSize = gp.size
			rs.design.Parallelism = gp.p
			rs.design.Wire = gp.wire
			rs.err = rs.pl.Reset(&rs.design, layers, opt.Interface)
		}
		if opt.EvalSpin > 0 {
			seed := uint64(gp.size)<<32 | uint64(gp.p)<<16 | uint64(gp.node)
			spinSink.Add(spin(seed, opt.EvalSpin))
		}
		var r arch.Report
		var err error
		switch {
		case inject != nil && inject.size == gp.size && inject.p == gp.p && inject.node == gp.node:
			err = fmt.Errorf("%w at %s (FailEval)", errInjected, candID(gp))
		case rs.err != nil:
			err = fmt.Errorf("%w: %w", errUnbuildable, rs.err)
		default:
			r, err = evalCandidate(tctx, &rs.pl, gp.p, &rs.acc)
		}
		evalTime := rs.spans.End(start)
		// The candidate span is a child of the sweep span keyed by the grid
		// point, so its span ID is identical for every worker count and
		// schedule. Only the journal needs the ID and the key.
		journal := telemetry.JournalOn()
		var id string
		var ids telemetry.SpanIDs
		if journal {
			id = candID(gp)
			ids = rs.spans.Journal(id, start, evalTime)
		}
		if err != nil {
			if tctx.Err() != nil {
				// A cancellation surfacing through the evaluation stack
				// aborts the sweep rather than counting as a failed point.
				return tctx.Err()
			}
			if errors.Is(err, errUnbuildable) {
				telUnbuildable.Inc()
				if journal {
					telemetry.EmitEvent(telemetry.EvCandidateEval, id, &CandidateEval{SpanIDs: ids, Outcome: "unbuildable"})
				}
				return nil // infeasible grid point (e.g. weight overflow)
			}
			telEvalFailed.Inc()
			evalFailed.Add(1)
			failMu.Lock()
			lastEvalErr = fmt.Errorf("dse: size %d p %d node %d: %w", gp.size, gp.p, gp.node, err)
			failMu.Unlock()
			telemetry.Log().Warn("dse candidate evaluation failed",
				"size", gp.size, "parallelism", gp.p, "wire_node", gp.node, "err", err)
			if journal {
				us := evalTime.Microseconds()
				telemetry.EmitEvent(telemetry.EvCandidateEval, id,
					&CandidateEval{SpanIDs: ids, Outcome: "eval_failed", Err: err.Error(), EvalUS: &us})
			}
			return nil
		}
		telCandidates.Inc()
		telEvalUS.Observe(float64(evalTime.Microseconds()))
		c := &results[i]
		*c = Candidate{
			CrossbarSize: gp.size,
			Parallelism:  gp.p,
			WireNode:     gp.node,
			Report:       r,
			Feasible:     math.Abs(r.ErrorWorst) <= opt.ErrorLimit,
			EvalTime:     evalTime,
		}
		if c.Feasible {
			telFeasible.Inc()
		} else {
			telInfeasible.Inc()
		}
		if journal {
			outcome := "ok"
			if !c.Feasible {
				outcome = "infeasible"
			}
			us := evalTime.Microseconds()
			telemetry.EmitEvent(telemetry.EvCandidateEval, id, &CandidateEval{SpanIDs: ids, Outcome: outcome, EvalUS: &us,
				CandidateFigures: &CandidateFigures{AreaMM2: r.AreaMM2, EnergyJ: r.EnergyPerSample,
					LatencyS: r.PipelineCycle, ErrorWorst: r.ErrorWorst}})
		}
		return nil
	}
	// pool.Run runs at most min(workers, tasks) tasks at once, so a free
	// list of that many storages never runs dry and a receive never blocks.
	storage := make([]runStorage, min(pool.Resolve(opt.Workers), len(runs)))
	free := make(chan *runStorage, len(storage))
	for i := range storage {
		free <- &storage[i]
	}
	err = pool.Run(ctx, len(runs), opt.Workers, func(tctx context.Context, k int) error {
		rs := <-free
		defer func() { free <- rs }()
		telemetry.OpenTally(tctx, "candidate", &rs.spans)
		defer rs.spans.Flush()
		gp, i := runs[k].gridPoint, runs[k].first
		for _, p := range space.Parallelisms {
			if p > gp.size {
				continue
			}
			gp.p = p
			if err := explorePoint(tctx, i, gp, i == runs[k].first, rs); err != nil {
				return err
			}
			i++
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("dse: sweep aborted: %w", err)
	}
	// Compact in place: the write index never passes the read index.
	out := results[:0]
	feasible := 0
	for _, c := range results {
		if c.CrossbarSize == 0 {
			continue
		}
		if c.Feasible {
			feasible++
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		if failed := evalFailed.Load(); failed > 0 {
			return nil, fmt.Errorf("dse: all %d buildable designs failed evaluation, last: %w", failed, lastEvalErr)
		}
		return nil, fmt.Errorf("dse: no buildable design in the space")
	}
	telemetry.Log().Debug("dse sweep done",
		"candidates", len(out), "feasible", feasible, "infeasible", len(out)-feasible,
		"evalfailed", evalFailed.Load(), "workers", pool.Resolve(opt.Workers))
	return out, nil
}

// Best returns the feasible candidate minimising the objective, or nil when
// no feasible candidate has a non-NaN objective metric: a NaN metric
// compares false either way, so it would win only by coming first. Each
// objective's selection pass is timed under its own span
// (dse.select.<objective>).
func Best(cands []Candidate, obj Objective) *Candidate {
	_, sp := telemetry.StartSpan(context.Background(), "dse.select."+strings.ToLower(obj.String()))
	defer sp.End()
	var best *Candidate
	var least float64
	for i := range cands {
		c := &cands[i]
		m := obj.metric(c)
		if !c.Feasible || math.IsNaN(m) {
			continue
		}
		if best == nil || m < least {
			best, least = c, m
		}
	}
	return best
}

// Pareto returns the candidates not dominated on (area, pipeline latency) —
// the trade-off front of Fig. 8. The result is sorted by area.
//
// A candidate is dominated when another is no worse on both metrics and
// better on one. Sorting by area turns that into one pass: a candidate is
// on the front when its latency is the least at its area and below the
// least latency of every strictly smaller area. A NaN metric compares
// false either way, so such a candidate is never dominated and never
// dominates; it joins the front and stays out of the pass. The sorted pass
// runs over paretoSurvivors only, which drops in linear time all but a few
// hundred of a paper sweep's candidates. The front is gathered in input
// order before the final sort, so ties between equal areas come out as the
// pairwise definition leaves them.
func Pareto(cands []Candidate) []Candidate {
	area := func(i int) float64 { return cands[i].Report.AreaMM2 }
	lat := func(i int) float64 { return cands[i].Report.PipelineCycle }
	onFront := make([]bool, len(cands))
	order := paretoSurvivors(cands, onFront)
	sort.Slice(order, func(a, b int) bool { return area(order[a]) < area(order[b]) })
	// best is the least latency over strictly smaller areas, once any.
	best, haveBest := 0.0, false
	for g := 0; g < len(order); {
		// order[g:h] is one area: sorted, so only a larger area compares <.
		h, least := g, lat(order[g])
		for ; h < len(order) && !(area(order[g]) < area(order[h])); h++ {
			least = math.Min(least, lat(order[h]))
		}
		for _, i := range order[g:h] {
			onFront[i] = lat(i) <= least && (!haveBest || lat(i) < best)
		}
		if !haveBest || least < best {
			best, haveBest = least, true
		}
		g = h
	}
	var front []Candidate
	for i, ok := range onFront {
		if ok {
			front = append(front, cands[i])
		}
	}
	sort.Slice(front, func(i, j int) bool { return front[i].Report.AreaMM2 < front[j].Report.AreaMM2 })
	return front
}

// paretoBucketBits sets the number of area buckets of paretoSurvivors.
const paretoBucketBits = 8

// areaKey maps a non-NaN area to a key in the area's order: its IEEE bits,
// with −0 folded into +0, negative values inverted below the positive ones.
func areaKey(a float64) uint64 {
	if a == 0 {
		return 1 << 63 // −0 and +0 are one area
	}
	b := math.Float64bits(a)
	if b>>63 == 1 {
		return ^b
	}
	return b | 1<<63
}

// paretoSurvivors marks on onFront the candidates with a NaN metric, and
// returns in input order the others that no candidate of a lower area
// bucket dominates. The buckets split the key range of the areas into at
// most 1<<paretoBucketBits equal parts, so a lower bucket holds only
// strictly smaller areas: a candidate whose latency is no less than a lower
// bucket's least is strictly dominated. Dominance is transitive, so the
// front of the survivors is the front of all candidates.
func paretoSurvivors(cands []Candidate, onFront []bool) []int {
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for i := range cands {
		r := &cands[i].Report
		if math.IsNaN(r.AreaMM2) || math.IsNaN(r.PipelineCycle) {
			onFront[i] = true
			continue
		}
		k := areaKey(r.AreaMM2)
		lo, hi = min(lo, k), max(hi, k)
	}
	shift := max(bits.Len64(hi-lo)-paretoBucketBits, 0)
	bucket := make([]uint8, len(cands))
	var least [1 << paretoBucketBits]float64
	var seen [1 << paretoBucketBits]bool
	for b := range least {
		least[b] = math.Inf(1)
	}
	for i := range cands {
		if onFront[i] {
			continue
		}
		r := &cands[i].Report
		b := uint8((areaKey(r.AreaMM2) - lo) >> shift)
		bucket[i], seen[b] = b, true
		least[b] = min(least[b], r.PipelineCycle)
	}
	// below[b] is the least latency of the buckets under b, of which there
	// is one when under[b]: a +Inf latency is a bucket's least as well, so
	// seen, not the +Inf that least starts at, tells a bucket with
	// candidates.
	var below [1 << paretoBucketBits]float64
	var under [1 << paretoBucketBits]bool
	below[0] = math.Inf(1)
	for b := 1; b < len(below); b++ {
		below[b], under[b] = min(below[b-1], least[b-1]), under[b-1] || seen[b-1]
	}
	dominated := func(i int) bool {
		b := bucket[i]
		return under[b] && below[b] <= cands[i].Report.PipelineCycle
	}
	n := 0
	for i := range cands {
		if !onFront[i] && !dominated(i) {
			n++
		}
	}
	order := make([]int, 0, n)
	for i := range cands {
		if !onFront[i] && !dominated(i) {
			order = append(order, i)
		}
	}
	return order
}

// RadarFactors computes the five normalized performance factors of Fig. 9
// for each selected design: reciprocal area, energy efficiency (reciprocal
// energy), reciprocal power, speed (reciprocal latency), and accuracy
// (1 − error). The first four are normalized by the maximum across the
// selected designs, matching the paper's normalization.
func RadarFactors(selected []Candidate) [][5]float64 {
	if len(selected) == 0 {
		return nil
	}
	inv := func(v float64) float64 {
		if v <= 0 {
			return 0
		}
		return 1 / v
	}
	raw := make([][5]float64, len(selected))
	var maxes [4]float64
	for i, c := range selected {
		raw[i] = [5]float64{
			inv(c.Report.AreaMM2),
			inv(c.Report.EnergyPerSample),
			inv(c.Report.Power),
			inv(c.Report.PipelineCycle),
			1 - math.Abs(c.Report.ErrorWorst),
		}
		for k := 0; k < 4; k++ {
			if raw[i][k] > maxes[k] {
				maxes[k] = raw[i][k]
			}
		}
	}
	for i := range raw {
		for k := 0; k < 4; k++ {
			if maxes[k] > 0 {
				raw[i][k] /= maxes[k]
			}
		}
	}
	return raw
}
