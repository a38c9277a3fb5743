package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"

	"mnsim/internal/arch"
	"mnsim/internal/circuit"
	"mnsim/internal/crossbar"
	"mnsim/internal/device"
	"mnsim/internal/dse"
	"mnsim/internal/nn"
	"mnsim/internal/periph"
	"mnsim/internal/tech"
	"mnsim/internal/telemetry"
	"mnsim/internal/validate"
)

// workload is one benchmark workload. setup builds its state from scratch
// and runs the warm-up ops of setup round r; prepare draws op i's inputs
// outside the timer.
type workload interface {
	setup(ctx context.Context, r int) (tally, error)
	prepare(i int) (op, error)
	close() error
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"table2", "cold-256", "dse-sweep", "table2-recorded"}

func newWorkload(name string, seed int64, dir string) (tracedWorkload, error) {
	switch name {
	case "table2":
		return &table2{seed: seed, golden: goldenFor(seed)}, nil
	case "table2-recorded":
		return &table2{seed: seed, golden: goldenFor(seed), recorded: true, dir: dir}, nil
	case "cold-256":
		return &cold256{seed: seed}, nil
	case "dse-sweep":
		return &dseSweep{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// --- table2 and table2-recorded -----------------------------------------

// table2 runs validate.TableIIContext at BenchmarkTableII's configuration.
// With recorded set, the flight recorder is on as `mnsim-validate -journal
// -trace-events` runs it: the default journal writes to a file and causal
// trace events are retained.
type table2 struct {
	seed     int64
	golden   map[int]string
	recorded bool
	dir      string

	warmEvents int // journal events the recorded warm-up ops emitted
	lay        table2Layers
}

func table2Options(seed int64, i int) validate.TableIIOptions {
	return validate.TableIIOptions{WeightSamples: 4, InputSamples: 12, Size: 64, Seed: opSeed(seed, i)}
}

func (w *table2) journalPath() string { return filepath.Join(w.dir, "journal.jsonl") }

// recordedWarmups is how many warm-up ops each set-up of table2-recorded
// makes. The rings are emptied before the first of the setupRounds
// set-ups; at ~250 events per op the journal ring (4,096 events) has
// wrapped before the last set-up ends, so every timed op sees a full ring.
const recordedWarmups = 6

func (w *table2) setup(ctx context.Context, r int) (tally, error) {
	if !w.recorded {
		return runOps(ctx, w, warmIndices(r, 2))
	}
	if r == 0 {
		j := telemetry.DefaultJournal()
		if err := j.Close(); err != nil {
			return tally{}, err
		}
		j.Reset()
		telemetry.DefaultTracer().ResetTraceEvents()
		w.warmEvents = 0
	}
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return tally{}, err
	}
	// The first warm-up op runs once with the recorder off; the recorded
	// run of the same op must give bit-identical rows.
	telemetry.DisableTraceEvents()
	first := warmIndex(r, 0)
	plain, err := validate.TableIIContext(ctx, table2Options(w.seed, first))
	if err != nil {
		reportFailure(first, err)
		return tally{attempted: 1, failed: 1}, nil
	}
	telemetry.EnableTraceEvents(0)
	// The last set-up warms up past recordedWarmups while the journal ring
	// has not wrapped: from then on every Emit shifts a full ring.
	var t tally
	for k := 0; k < recordedWarmups || (r == setupRounds-1 && w.warmEvents <= telemetry.DefaultJournalRing); k++ {
		i := warmIndex(r, k)
		o, rows, err := w.rowsOp(i)
		if err != nil {
			return t, err
		}
		if i == first {
			check := o.check
			o.check = func() error {
				if err := check(); err != nil {
					return err
				}
				return sameRows(*rows, plain)
			}
		}
		countOp(ctx, i, o, &t)
		w.warmEvents += w.lay.lastEvents
	}
	return t, nil
}

func (w *table2) prepare(i int) (op, error) {
	o, _, err := w.rowsOp(i)
	return o, err
}

// rowsOp returns op i and where its rows land.
func (w *table2) rowsOp(i int) (op, *[]validate.Row, error) {
	if w.recorded {
		return w.recordedOp(i)
	}
	rows := new([]validate.Row)
	return op{
		run: func(ctx context.Context) (err error) {
			*rows, err = validate.TableIIContext(ctx, table2Options(w.seed, i))
			return err
		},
		check: func() error { return checkRows(*rows, w.golden, i) },
	}, rows, nil
}

// recordedOp opens the journal on a fresh file before op i; its check
// closes the journal and parses it back.
func (w *table2) recordedOp(i int) (op, *[]validate.Row, error) {
	rows := new([]validate.Row)
	if err := telemetry.DefaultJournal().Open(w.journalPath()); err != nil {
		return op{}, nil, err
	}
	return op{
		run: func(ctx context.Context) (err error) {
			*rows, err = validate.TableIIContext(ctx, table2Options(w.seed, i))
			return err
		},
		check: func() error {
			if err := telemetry.DefaultJournal().Close(); err != nil {
				return err
			}
			events, err := telemetry.ReadJournalFile(w.journalPath())
			if err != nil {
				return fmt.Errorf("journal does not parse: %w", err)
			}
			st, err := os.Stat(w.journalPath())
			if err != nil {
				return err
			}
			w.lay.lastEvents, w.lay.lastBytes = len(events), st.Size()
			if len(events) < 2 || events[0].Type != telemetry.EvJournal {
				return fmt.Errorf("journal holds %d events and no header", len(events))
			}
			return checkRows(*rows, w.golden, i)
		},
	}, rows, nil
}

func (w *table2) close() error {
	if !w.recorded {
		return nil
	}
	telemetry.DisableTraceEvents()
	return telemetry.DefaultJournal().Close()
}

// rowErrorBound bounds each row's |relative error| in one op. The paper
// keeps Table II under 10%, but over its 20×100-sample average; one op here
// averages 4×12 samples, and over 240 op seeds the computation-power row
// reached 12.6% (0.4% of ops above 10%). 20% leaves that sampling noise
// room and still fails a broken model or solver; the golden digests pin
// the default seed's values exactly.
const rowErrorBound = 0.20

// checkRows checks one Table II result: five finite rows, each within
// rowErrorBound, and, where a golden digest is pinned for op i, the exact
// values.
func checkRows(rows []validate.Row, golden map[int]string, i int) error {
	if len(rows) != 5 {
		return fmt.Errorf("table2: %d rows, want 5", len(rows))
	}
	for _, r := range rows {
		if math.IsNaN(r.Model) || math.IsInf(r.Model, 0) || math.IsNaN(r.Circuit) || math.IsInf(r.Circuit, 0) {
			return fmt.Errorf("table2: %s is not finite: model %v circuit %v", r.Metric, r.Model, r.Circuit)
		}
		if e := math.Abs(r.Error()); !(e < rowErrorBound) {
			return fmt.Errorf("table2: %s error %.2f%% is not below %.0f%%", r.Metric, 100*e, 100*rowErrorBound)
		}
	}
	if want, ok := golden[i]; ok {
		if got := rowsDigest(rows); got != want {
			return fmt.Errorf("table2: op %d rows digest %s, golden %s (rows %+v)", i, got, want, rows)
		}
	}
	return nil
}

// sameRows reports whether two Table II results are bit-identical.
func sameRows(a, b []validate.Row) error {
	if rowsDigest(a) != rowsDigest(b) {
		return fmt.Errorf("table2: recorded rows %+v differ from plain rows %+v", a, b)
	}
	return nil
}

// --- cold-256 -----------------------------------------------------------

// cold256 solves a fresh 256×256 non-linear crossbar with no SolverState:
// assembly, the CSR build, the block-Jacobi factorization and the setup CG
// run every time.
type cold256 struct {
	seed int64
	dev  device.Model
	wire tech.WireTech
	p    crossbar.Params

	lay circuitLayers
}

const coldSize = 256

func (w *cold256) setup(ctx context.Context, r int) (tally, error) {
	w.dev = device.RRAM()
	w.wire = tech.MustInterconnect(45)
	w.p = crossbar.New(coldSize, coldSize, w.dev, w.wire)
	return runOps(ctx, w, warmIndices(r, 4))
}

// crossbar draws op i's resistances (uniform over the device levels) and
// drives.
func (w *cold256) crossbar(i int) (*circuit.Crossbar, []float64, error) {
	rng := rand.New(rand.NewSource(opSeed(w.seed, i)))
	r, err := levelResistances(coldSize, coldSize, w.dev, rng)
	if err != nil {
		return nil, nil, err
	}
	vin := make([]float64, coldSize)
	for m := range vin {
		vin[m] = w.p.VDrive * rng.Float64()
	}
	return &circuit.Crossbar{M: coldSize, N: coldSize, R: r, WireR: w.wire.SegmentR, RSense: w.p.RSense, Dev: w.dev}, vin, nil
}

func (w *cold256) prepare(i int) (op, error) {
	c, vin, err := w.crossbar(i)
	if err != nil {
		return op{}, err
	}
	var res *circuit.Result
	return op{
		run: func(ctx context.Context) (err error) {
			res, err = c.SolveContext(ctx, vin, circuit.SolveOptions{})
			return err
		},
		check: func() error { return checkSolve(c, vin, res) },
	}, nil
}

// powerTolerance bounds |Power − DissipatedPower| / DissipatedPower: the
// source power must match the power the elements dissipate. Over 300 cold
// 256×256 solves the mismatch had median 4e-8, p99 1.1e-6 and max 1.4e-6.
const powerTolerance = 1e-5

func checkSolve(c *circuit.Crossbar, vin []float64, res *circuit.Result) error {
	if res == nil || len(res.VOut) != c.N {
		return fmt.Errorf("circuit: no result")
	}
	for _, v := range res.VOut {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("circuit: output %v is not finite", v)
		}
	}
	dp := c.DissipatedPower(res, vin)
	if rel := math.Abs(res.Power-dp) / math.Abs(dp); !(rel <= powerTolerance) {
		return fmt.Errorf("circuit: source power %g vs dissipated %g (rel %.2g > %g)", res.Power, dp, rel, powerTolerance)
	}
	return nil
}

func (w *cold256) close() error { return nil }

// --- dse-sweep ----------------------------------------------------------

// dseSweep explores VGG-16 on the Table VI base design over a paper-scale
// dense space, then selects the four optima and the Pareto front.
type dseSweep struct {
	seed    int64
	base    arch.Design
	layers  []arch.LayerDims
	space   dse.Space
	workers int

	lay dseLayers
}

// dseErrorLimit is the paper's VGG-16 feasibility constraint.
const dseErrorLimit = 0.5

// The sweep's expected outputs: the candidate count, the optimum
// (size, parallelism, wire node) per objective in dse.Objectives order, and
// the Pareto front size.
const (
	wantCandidates = 6570
	wantFront      = 59
)

var wantOptima = [4][3]int{{304, 1, 90}, {128, 128, 90}, {256, 256, 90}, {56, 1, 90}}

// paperSpace is crossbar sizes 8–1024 in steps of 8, parallelism 1–256 in
// powers of two, and wire nodes {18,22,28,36,45,90} nm.
func paperSpace() dse.Space {
	var s dse.Space
	for size := 8; size <= 1024; size += 8 {
		s.CrossbarSizes = append(s.CrossbarSizes, size)
	}
	for p := 1; p <= 256; p *= 2 {
		s.Parallelisms = append(s.Parallelisms, p)
	}
	s.WireNodes = []int{18, 22, 28, 36, 45, 90}
	return s
}

func (w *dseSweep) setup(ctx context.Context, r int) (tally, error) {
	layers, err := nn.VGG16().Dims()
	if err != nil {
		return tally{}, err
	}
	w.layers = layers
	w.base = arch.Design{
		CrossbarSize: 128, WeightPolarity: 2, TwoCrossbarSigned: true,
		WeightBits: 8, DataBits: 8,
		CMOS: tech.MustNode(45), Wire: tech.MustInterconnect(45), Dev: device.RRAM(),
		ADC: periph.ADCVariableSA, Neuron: periph.NeuronReLU,
		AreaCoefficient: arch.DefaultAreaCoefficient,
	}
	w.space = paperSpace()
	w.workers = runtime.NumCPU()
	return runOps(ctx, w, warmIndices(r, 3))
}

// opSpace is the space in op i's traversal order: each axis is shuffled by
// the op's seed, so no two ops pass the same input while the set of designs,
// and so every expected output, stays the same.
func (w *dseSweep) opSpace(i int) dse.Space {
	rng := rand.New(rand.NewSource(opSeed(w.seed, i)))
	shuffled := func(xs []int) []int {
		ys := append([]int(nil), xs...)
		rng.Shuffle(len(ys), func(a, b int) { ys[a], ys[b] = ys[b], ys[a] })
		return ys
	}
	return dse.Space{
		CrossbarSizes: shuffled(w.space.CrossbarSizes),
		Parallelisms:  shuffled(w.space.Parallelisms),
		WireNodes:     shuffled(w.space.WireNodes),
	}
}

// dseResult is one sweep's outputs.
type dseResult struct {
	cands  []dse.Candidate
	optima [4]*dse.Candidate
	front  []dse.Candidate
}

func (w *dseSweep) explore(ctx context.Context, sp dse.Space) (dseResult, error) {
	cands, err := dse.Explore(ctx, w.base, w.layers, sp, dse.Options{ErrorLimit: dseErrorLimit, Workers: w.workers})
	return dseResult{cands: cands}, err
}

func (w *dseSweep) sel(r *dseResult) {
	for k, obj := range dse.Objectives() {
		r.optima[k] = dse.Best(r.cands, obj)
	}
	r.front = dse.Pareto(r.cands)
}

func (w *dseSweep) prepare(i int) (op, error) {
	sp := w.opSpace(i)
	var res dseResult
	return op{
		run: func(ctx context.Context) (err error) {
			if res, err = w.explore(ctx, sp); err != nil {
				return err
			}
			w.sel(&res)
			return nil
		},
		check: func() error { return checkSweep(res) },
	}, nil
}

// checkSweep checks one sweep. Best keeps the first of tied candidates in
// traversal order, and the accuracy objective has ties, so an optimum is
// checked by its objective value: it must equal the pinned design's.
func checkSweep(r dseResult) error {
	if len(r.cands) != wantCandidates {
		return fmt.Errorf("dse: %d candidates, want %d", len(r.cands), wantCandidates)
	}
	for k, obj := range dse.Objectives() {
		c, want := r.optima[k], wantOptima[k]
		if c == nil {
			return fmt.Errorf("dse: no %v optimum", obj)
		}
		pinned := findCandidate(r.cands, want)
		if pinned == nil || !pinned.Feasible {
			return fmt.Errorf("dse: pinned %v optimum %d/p%d/%d nm is missing or infeasible", obj, want[0], want[1], want[2])
		}
		if got, exp := objectiveValue(obj, c), objectiveValue(obj, pinned); math.Float64bits(got) != math.Float64bits(exp) {
			return fmt.Errorf("dse: %v optimum %d/p%d/%d nm scores %g, want %g as %d/p%d/%d nm does",
				obj, c.CrossbarSize, c.Parallelism, c.WireNode, got, exp, want[0], want[1], want[2])
		}
	}
	if len(r.front) != wantFront {
		return fmt.Errorf("dse: Pareto front of %d, want %d", len(r.front), wantFront)
	}
	return nil
}

func findCandidate(cands []dse.Candidate, d [3]int) *dse.Candidate {
	for i := range cands {
		if c := &cands[i]; c.CrossbarSize == d[0] && c.Parallelism == d[1] && c.WireNode == d[2] {
			return c
		}
	}
	return nil
}

// objectiveValue is the quantity dse.Best minimises for obj.
func objectiveValue(obj dse.Objective, c *dse.Candidate) float64 {
	switch obj {
	case dse.MinArea:
		return c.Report.AreaMM2
	case dse.MinEnergy:
		return c.Report.EnergyPerSample
	case dse.MinLatency:
		return c.Report.PipelineCycle
	default:
		return math.Abs(c.Report.ErrorWorst)
	}
}

func (w *dseSweep) close() error { return nil }
