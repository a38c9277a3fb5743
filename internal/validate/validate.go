// Package validate implements the paper's validation experiments
// (Section VII.A–B): the behaviour-level models are held against the
// built-in circuit-level solver — the SPICE substitute — reproducing
// Table II (power/latency/accuracy validation), Table III (simulation
// speed-up), and Fig. 5 (error-rate fit curves).
package validate

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"mnsim/internal/accuracy"
	"mnsim/internal/circuit"
	"mnsim/internal/crossbar"
	"mnsim/internal/device"
	"mnsim/internal/pool"
	"mnsim/internal/tech"
	"mnsim/internal/telemetry"
)

// randomResistances draws a uniformly distributed level population.
func randomResistances(rows, cols int, dev device.Model, rng *rand.Rand) [][]float64 {
	r := make([][]float64, rows)
	for i := range r {
		r[i] = make([]float64, cols)
		for j := range r[i] {
			lvl := rng.Intn(dev.Levels())
			res, err := dev.LevelResistance(lvl)
			if err != nil {
				panic(err) // unreachable: lvl is in range by construction
			}
			r[i][j] = res
		}
	}
	return r
}

// Row is one metric comparison of the Table II validation.
type Row struct {
	Metric  string
	Model   float64 // MNSIM behaviour-level estimate
	Circuit float64 // circuit-level measurement
}

// Error returns the relative deviation of the model from the circuit value.
func (r Row) Error() float64 {
	if r.Circuit == 0 {
		return 0
	}
	return (r.Model - r.Circuit) / r.Circuit
}

// TableIIOptions tunes the validation run.
type TableIIOptions struct {
	// WeightSamples is the number of random weight matrices (paper: 20).
	WeightSamples int
	// InputSamples is the number of random input vectors per weight sample
	// (paper: 100).
	InputSamples int
	// Size is the validation layer width (paper: two 128×128 layers).
	Size int
	// Seed feeds the random generator.
	Seed int64
	// Workers bounds the goroutines running the independent circuit work
	// (0 = GOMAXPROCS, see pool.Resolve). The rows are bit-identical for
	// every worker count.
	Workers int
}

// TableII reproduces the Table II validation with respect to a 3-layer
// fully-connected NN (two Size×Size layers): computation power, read power,
// computation energy, latency, and average relative accuracy, each as
// MNSIM's behaviour-level estimate versus the circuit-level measurement.
// It is TableIIContext with a background context.
func TableII(opt TableIIOptions) ([]Row, error) {
	return TableIIContext(context.Background(), opt)
}

// TableIIContext is TableII with a caller-supplied context: every
// circuit-level solve, the transient included, checks it, so a cancelled
// context aborts the validation mid-solve.
//
// The run has three steps. Every random input is drawn first, on one
// generator in a fixed order. The independent circuit work then runs as
// index-addressed tasks on the worker pool: task 0 is the transient (the
// longest, so it starts first), task 1 the JPEG inference, and tasks
// 2…WeightSamples+1 the weight-sample streams. Each pool worker solves
// its transient and streams through one SolverState, so a run holds one
// solver buffer set per worker, not per stream; the state warm-starts a
// solve only from the same crossbar's previous one, so every stream's
// first solve is cold whichever worker runs it. Last, the per-solve powers
// are summed in the sequential (weight sample, input sample) order, so the
// rows do not depend on the worker count or on scheduling.
func TableIIContext(ctx context.Context, opt TableIIOptions) ([]Row, error) {
	if opt.WeightSamples <= 0 {
		opt.WeightSamples = 20
	}
	if opt.InputSamples <= 0 {
		opt.InputSamples = 100
	}
	if opt.Size <= 0 {
		opt.Size = 128
	}
	dev := device.RRAM()
	wire := tech.MustInterconnect(45)
	p := crossbar.New(opt.Size, opt.Size, dev, wire)
	d, err := drawTableII(opt, p, dev, wire)
	if err != nil {
		return nil, err
	}

	// Phase: one tick per weight-sample stream plus the
	// transient-latency and JPEG-accuracy tasks.
	nTasks := len(d.streams) + 2
	prog := telemetry.StartPhase("validate.table2", int64(nTasks))
	defer prog.Finish()

	// pool.Run runs at most min(workers, tasks) tasks at once, so a free
	// list of that many states never runs dry and a receive never blocks.
	free := solverStates(min(pool.Resolve(opt.Workers), nTasks))
	var rcSettle, modelAcc, circuitAcc float64
	err = pool.Run(ctx, nTasks, opt.Workers, func(tctx context.Context, t int) error {
		defer prog.Inc()
		st := <-free
		defer func() { free <- st }()
		switch t {
		case 0:
			// Latency: transient settling of the full RC grid, against the
			// behaviour-level Elmore estimate.
			sctx, sp := telemetry.StartSpanKeyed(tctx, "validate.table2.transient", "transient")
			defer sp.End()
			vin := make([]float64, opt.Size)
			fill(vin, p.VDrive)
			var err error
			rcSettle, err = d.lat.SettleTimeContext(sctx, vin, circuit.TransientOptions{NodeCap: wire.SegmentC, CellCap: dev.CellCap, State: st})
			if err != nil {
				return fmt.Errorf("validate: transient: %w", err)
			}
			return nil
		case 1:
			sctx, sp := telemetry.StartSpanKeyed(tctx, "validate.table2.jpeg", "jpeg")
			defer sp.End()
			var err error
			modelAcc, circuitAcc, err = d.jpeg.accuracy(sctx)
			return err
		default:
			w := t - 2
			sctx, sp := telemetry.StartSpanKeyed(tctx, "validate.table2.weights", strconv.Itoa(w))
			defer sp.End()
			return d.streams[w].run(sctx, st, p.AvgDriveRMS())
		}
	})
	if err != nil {
		return nil, err
	}

	// Computation and read power: circuit-level averages over the random
	// weight populations and input drives.
	compPower, readPower := averagePowers(d.streams)
	// The transient solver covers the wire/cell RC network; the intrinsic
	// cell response is a datasheet constant added on both sides.
	settle := rcSettle + dev.SwitchLatency
	modelLatency := p.Latency()

	// --- Computation energy of the 3-layer ANN (two layers of crossbars):
	// power × settling window on both sides.
	modelEnergy := 2 * p.ComputeEnergy()
	circuitEnergy := 2 * compPower * settle

	rows := []Row{
		{"Computation Power (W)", 2 * p.ComputePower(), 2 * compPower},
		{"Read Power (W)", 2 * p.ReadPower(), 2 * readPower},
		{"Computation Energy (J, 3-layer ANN)", modelEnergy, circuitEnergy},
		{"Latency (s)", modelLatency, settle},
		{"Average Relative Accuracy", modelAcc, circuitAcc},
	}
	if telemetry.JournalOn() {
		telemetry.EmitEvent(telemetry.EvPhase, "validate.table2",
			&table2Summary{Action: "summary", Rows: len(rows), WorstRelError: worstAbsRowError(rows)})
	}
	return rows, nil
}

// solverStates returns a free list holding n new solver states.
func solverStates(n int) chan *circuit.SolverState {
	free := make(chan *circuit.SolverState, n)
	for range n {
		free <- circuit.NewSolverState()
	}
	return free
}

// table2Summary is the data of the phase event that closes Table II.
type table2Summary struct {
	Action        string  `json:"action"`
	Rows          int     `json:"rows"`
	WorstRelError float64 `json:"worst_rel_error"`
}

// table2Inputs is every random input of one Table II run.
type table2Inputs struct {
	streams []*weightStream
	lat     *circuit.Crossbar // the crossbar whose transient is measured
	jpeg    *jpegCase
}

// drawTableII draws every random input of a Table II run from one
// generator, in the order a sequential run consumes them: per weight
// sample its resistances, then per input sample the compute drive and the
// read row; then the latency crossbar; then the JPEG network and input.
func drawTableII(opt TableIIOptions, p crossbar.Params, dev device.Model, wire tech.WireTech) (*table2Inputs, error) {
	rng := rand.New(rand.NewSource(opt.Seed + 1))
	inputs := max(1, opt.InputSamples/opt.WeightSamples)
	d := &table2Inputs{streams: make([]*weightStream, opt.WeightSamples)}
	for w := range d.streams {
		r := randomResistances(opt.Size, opt.Size, dev, rng)
		s := &weightStream{
			c:       &circuit.Crossbar{M: opt.Size, N: opt.Size, R: r, WireR: wire.SegmentR, RSense: p.RSense, Dev: dev},
			compVin: make([][]float64, inputs),
			readRow: make([]int, inputs),
			comp:    make([]float64, inputs),
			read:    make([]float64, inputs),
		}
		for k := range s.compVin {
			vin := make([]float64, opt.Size)
			for i := range vin {
				vin[i] = p.VDrive * rng.Float64()
			}
			s.compVin[k] = vin
			s.readRow[k] = rng.Intn(opt.Size)
		}
		d.streams[w] = s
	}
	rLat := randomResistances(opt.Size, opt.Size, dev, rng)
	d.lat = &circuit.Crossbar{M: opt.Size, N: opt.Size, R: rLat, WireR: wire.SegmentR, RSense: p.RSense, Dev: dev}
	var err error
	d.jpeg, err = drawJPEG(rng)
	return d, err
}

// weightStream is one weight sample's solve stream: its crossbar, the
// drives drawn for it, and the powers its solves measure.
type weightStream struct {
	c       *circuit.Crossbar
	compVin [][]float64 // compute drive of each input sample
	readRow []int       // the single driven row of each read solve
	// comp and read hold each input sample's solved power.
	comp, read []float64
}

// run solves the stream's compute and read drives in input-sample order
// through the worker's SolverState st, so the 2·inputs solves of the
// crossbar share the state's buffers and warm-start from each other; the
// first is cold, since st last solved another crossbar (or none).
// readDrive is the level of the read row: the RMS of the uniform compute
// drive, a deterministic level, so one row per sample still averages.
func (s *weightStream) run(ctx context.Context, st *circuit.SolverState, readDrive float64) error {
	vin := make([]float64, s.c.M)
	for k, cv := range s.compVin {
		res, err := s.c.SolveContext(ctx, cv, circuit.SolveOptions{State: st})
		if err != nil {
			return fmt.Errorf("validate: compute-power solve: %w", err)
		}
		s.comp[k] = res.Power
		fill(vin, 0)
		vin[s.readRow[k]] = readDrive
		res, err = s.c.SolveContext(ctx, vin, circuit.SolveOptions{State: st})
		if err != nil {
			return fmt.Errorf("validate: read-power solve: %w", err)
		}
		s.read[k] = res.Power
	}
	return nil
}

// averagePowers returns the mean compute and read power over every solve,
// summed in (weight sample, input sample) order: the order a sequential
// run accumulates them, so the sums are bit-identical to it.
func averagePowers(streams []*weightStream) (comp, read float64) {
	samples := 0
	for _, s := range streams {
		for k := range s.comp {
			comp += s.comp[k]
			read += s.read[k]
			samples++
		}
	}
	return comp / float64(samples), read / float64(samples)
}

// fill sets every element of vs to v.
func fill(vs []float64, v float64) {
	for i := range vs {
		vs[i] = v
	}
}

// worstAbsRowError returns the largest |relative error| across the
// Table II rows.
func worstAbsRowError(rows []Row) float64 {
	worst := 0.0
	for _, r := range rows {
		if e := math.Abs(r.Error()); e > worst {
			worst = e
		}
	}
	return worst
}

// TableIII measures the simulation time of the circuit-level solver versus
// the behaviour-level models for single crossbars of growing size — the
// paper's speed-up experiment. Returns one row per size.
type SpeedRow struct {
	Size         int
	CircuitTime  time.Duration
	ModelTime    time.Duration
	SpeedUp      float64
	CircuitIters int
}

// TableIIIContext runs the speed comparison for the given sizes (paper:
// 16–256). The timing loop stays strictly sequential — it measures per-solve wall time, which
// sharing cores would distort.
func TableIIIContext(ctx context.Context, sizes []int, seed int64) ([]SpeedRow, error) {
	rng := rand.New(rand.NewSource(seed + 2))
	dev := device.RRAM()
	wire := tech.MustInterconnect(45)
	prog := telemetry.StartPhase("validate.table3", int64(len(sizes)))
	defer prog.Finish()
	var out []SpeedRow
	for _, size := range sizes {
		p := crossbar.New(size, size, dev, wire)
		r := randomResistances(size, size, dev, rng)
		c := &circuit.Crossbar{M: size, N: size, R: r, WireR: wire.SegmentR, RSense: p.RSense, Dev: dev}
		vin := make([]float64, size)
		for i := range vin {
			vin[i] = p.VDrive * rng.Float64()
		}
		// Both sides are timed through telemetry spans — the one layer
		// allowed to read the wall clock — so the numerical packages stay
		// clock-free and the per-size timings still land in the trace
		// aggregates (validate.table3.circuit / validate.table3.model).
		cctx, circuitSpan := telemetry.StartSpan(ctx, "validate.table3.circuit")
		res, err := c.SolveContext(cctx, vin, circuit.SolveOptions{})
		circuitTime := circuitSpan.End()
		if err != nil {
			return nil, fmt.Errorf("validate: size %d: %w", size, err)
		}

		modelTime, err := timeModel(ctx, p)
		if err != nil {
			return nil, err
		}
		if modelTime <= 0 {
			modelTime = time.Nanosecond
		}
		out = append(out, SpeedRow{
			Size:         size,
			CircuitTime:  circuitTime,
			ModelTime:    modelTime,
			SpeedUp:      float64(circuitTime) / float64(modelTime),
			CircuitIters: res.CGIters,
		})
		prog.Inc()
	}
	if telemetry.JournalOn() {
		telemetry.EmitEvent(telemetry.EvPhase, "validate.table3",
			&table3Summary{Action: "summary", Sizes: len(out), MaxSpeedUp: maxSpeedUp(out)})
	}
	return out, nil
}

// table3Summary is the data of the phase event that closes Table III.
type table3Summary struct {
	Action     string  `json:"action"`
	Sizes      int     `json:"sizes"`
	MaxSpeedUp float64 `json:"max_speedup"`
}

// table3ModelRuns is how many times Table III evaluates the behaviour
// model per size, keeping the fastest.
const table3ModelRuns = 3

// timeModel times the behaviour-level "simulation" of a crossbar (area,
// power, latency, and the accuracy estimate) as the fastest of
// table3ModelRuns evaluations. One evaluation takes a few microseconds, so
// a single sample taken right after the circuit solve mostly measures cold
// caches, or a GC pause that lands in it.
func timeModel(ctx context.Context, p crossbar.Params) (time.Duration, error) {
	var best time.Duration
	for run := 0; run < table3ModelRuns; run++ {
		_, span := telemetry.StartSpan(ctx, "validate.table3.model")
		_ = p.Area()
		_ = p.ComputePower()
		_ = p.Latency()
		if _, err := accuracy.Eval(p); err != nil {
			span.End()
			return 0, err
		}
		if d := span.End(); run == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// maxSpeedUp returns the largest circuit/model speed-up across the
// Table III rows.
func maxSpeedUp(rows []SpeedRow) float64 {
	m := 0.0
	for _, r := range rows {
		if r.SpeedUp > m {
			m = r.SpeedUp
		}
	}
	return m
}

// Fig5Point is one point of the error-rate fit experiment.
type Fig5Point struct {
	Size, WireNode int
	Model, Circuit float64
}

// Fig5Context sweeps crossbar size × interconnect node, returning the
// model curve and the circuit-level scatter of the worst-case output error
// rate. It runs on a bounded worker pool (0 workers: the default): every
// (node, size) grid point is an independent deterministic solve, and the
// index-addressed result slice preserves the sequential output order for
// any worker count. Each point solves under its own validate.fig5.point
// span, keyed by size@node, so the spans and journal events of a point
// have the same IDs whichever worker runs it, and in whatever order.
// Cancelling ctx aborts the in-flight solves.
func Fig5Context(ctx context.Context, sizes, nodes []int, workers int) ([]Fig5Point, error) {
	dev := device.RRAM()
	points, err := fig5Grid(sizes, nodes)
	if err != nil {
		return nil, err
	}
	out := make([]Fig5Point, len(points))
	prog := telemetry.StartPhase("validate.fig5", int64(len(points)))
	defer prog.Finish()
	err = pool.Run(ctx, len(points), workers, func(tctx context.Context, i int) error {
		defer prog.Inc()
		size, node, wire := points[i].size, points[i].node, points[i].wire
		pctx, sp := telemetry.StartSpanKeyed(tctx, "validate.fig5.point", strconv.Itoa(size)+"@"+strconv.Itoa(node))
		defer sp.End()
		p := crossbar.New(size, size, dev, wire)
		model, err := accuracy.WorstCaseColumn(p)
		if err != nil {
			return err
		}
		r := make([][]float64, size)
		for i := range r {
			r[i] = make([]float64, size)
			for j := range r[i] {
				r[i][j] = dev.RMin
			}
		}
		c := &circuit.Crossbar{M: size, N: size, R: r, WireR: wire.SegmentR, RSense: p.RSense, Dev: dev}
		vin := make([]float64, size)
		for i := range vin {
			vin[i] = p.VDrive
		}
		res, err := c.SolveContext(pctx, vin, circuit.SolveOptions{})
		if err != nil {
			return fmt.Errorf("validate: fig5 size %d node %d: %w", size, node, err)
		}
		ideal, err := c.IdealOut(vin)
		if err != nil {
			return err
		}
		measured := (ideal[size-1] - res.VOut[size-1]) / ideal[size-1]
		out[i] = Fig5Point{Size: size, WireNode: node, Model: model, Circuit: measured}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if telemetry.JournalOn() {
		telemetry.EmitEvent(telemetry.EvPhase, "validate.fig5",
			&fig5Summary{Action: "summary", Points: len(out), WorstModelGap: worstModelGap(out)})
	}
	return out, nil
}

// fig5Summary is the data of the phase event that closes Fig. 5.
type fig5Summary struct {
	Action        string  `json:"action"`
	Points        int     `json:"points"`
	WorstModelGap float64 `json:"worst_model_gap"`
}

// fig5Cell is one (size, node) grid point of the Fig. 5 sweep.
type fig5Cell struct {
	size, node int
	wire       tech.WireTech
}

// fig5Grid enumerates the sweep grid in the sequential output order,
// resolving each interconnect node once.
func fig5Grid(sizes, nodes []int) ([]fig5Cell, error) {
	points := make([]fig5Cell, 0, len(nodes)*len(sizes))
	for _, node := range nodes {
		wire, err := tech.Interconnect(node)
		if err != nil {
			return nil, err
		}
		for _, size := range sizes {
			points = append(points, fig5Cell{size: size, node: node, wire: wire})
		}
	}
	return points, nil
}

// worstModelGap returns the largest |model − circuit| gap across the
// Fig. 5 points.
func worstModelGap(points []Fig5Point) float64 {
	worst := 0.0
	for _, pt := range points {
		if gap := math.Abs(pt.Model - pt.Circuit); gap > worst {
			worst = gap
		}
	}
	return worst
}
