package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mnsim/internal/arch"
	"mnsim/internal/circuit"
	"mnsim/internal/crossbar"
	"mnsim/internal/device"
	"mnsim/internal/dse"
	"mnsim/internal/tech"
	"mnsim/internal/telemetry"
	"mnsim/internal/validate"
)

// tracedWorkload is a workload with a traced run: traceOp runs op i with a
// span around each public call it makes, then the workload's layer pass,
// and returns what the op itself cost. det marks the ops whose counts feed
// the deterministic per-layer metrics; layerMetrics reports the metrics
// for which measures is true.
type tracedWorkload interface {
	workload
	traceOp(ctx context.Context, i int, tr *tracer, det bool) (sample, error)
	measures(metric string) bool
	layerMetrics(m map[string]float64)
}

// homes are the workloads, in order of preference, that measure a layer for
// a traced run whose own workload does not call it.
var homes = []string{"table2", "dse-sweep", "table2-recorded"}

// homePasses fills in every per-layer metric w does not measure from
// detPairs traced ops of the first home workload that does, so a traced
// run prints a measured value for every layer. The gc and trace metrics
// always describe w's own ops.
func homePasses(ctx context.Context, w tracedWorkload, seed int64, tmp string, tr *tracer, t *tally, m map[string]float64) error {
	missing := map[string]bool{}
	for _, d := range perLayer {
		if !w.measures(d.Name) && !strings.HasPrefix(d.Name, "gc.") && !strings.HasPrefix(d.Name, "trace.") {
			missing[d.Name] = true
		}
	}
	for _, name := range homes {
		h, err := newWorkload(name, seed, filepath.Join(tmp, "home-"+name))
		if err != nil {
			return err
		}
		var take []string
		for k := range missing {
			if h.measures(k) {
				take = append(take, k)
			}
		}
		if len(take) == 0 {
			continue
		}
		if err := homePass(ctx, h, tr, t); err != nil {
			return fmt.Errorf("%s layer pass: %w", name, err)
		}
		hm := map[string]float64{}
		h.layerMetrics(hm)
		for _, k := range take {
			m[k] = hm[k]
			delete(missing, k)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("no workload measures %v", missing)
	}
	return nil
}

// homePass sets h up and makes detPairs traced ops of it, counting them in t.
func homePass(ctx context.Context, h tracedWorkload, tr *tracer, t *tally) error {
	if _, err := setupAll(ctx, h, t); err != nil {
		return errors.Join(err, h.close())
	}
	for k := 0; k < detPairs; k++ {
		i := 2*k + 1
		_, err := h.traceOp(ctx, i, tr, true)
		t.attempted++
		if err != nil {
			t.failed++
			reportFailure(i, err)
		}
	}
	return h.close()
}

// --- circuit ------------------------------------------------------------

// circuitLayers accumulates the circuit layer's per-solve numbers. Counts
// taken from Result.Diag and its CostModel cover the det ops only, so they
// repeat exactly for one seed; times and allocations cover every traced
// solve.
type circuitLayers struct {
	solves             int
	solveNS            float64
	allocs, allocBytes float64

	detSolves                                         int
	newton, cg, refreshes, warm, asm, pre, cgf, nu, b float64

	settles                int
	settleNS, settleAllocB float64
}

// solve runs one SolveContext under a circuit.solve span, with MemStats
// read around it.
func (c *circuitLayers) solve(ctx context.Context, tr *tracer, i, parent int, x *circuit.Crossbar, vin []float64, opt circuit.SolveOptions, det bool) (*circuit.Result, time.Duration, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := tr.begin("circuit.solve", i, parent)
	res, err := x.SolveContext(ctx, vin, opt)
	d := tr.end(id)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, d, err
	}
	if res.Diag == nil || res.Diag.Cost == nil {
		return nil, d, fmt.Errorf("circuit: solve returned no cost model")
	}
	c.solves++
	c.solveNS += float64(d)
	c.allocs += float64(m1.Mallocs - m0.Mallocs)
	c.allocBytes += float64(m1.TotalAlloc - m0.TotalAlloc)
	if det {
		cost := res.Diag.Cost
		c.detSolves++
		c.newton += float64(res.NewtonIters)
		c.cg += float64(res.CGIters)
		c.refreshes += float64(res.Diag.PrecondRefreshes)
		if res.Diag.WarmStart {
			c.warm++
		}
		c.asm += float64(cost.Assembly.Flops)
		c.pre += float64(cost.Precond.Flops)
		c.cgf += float64(cost.CGLoop.Flops)
		c.nu += float64(cost.NewtonUpdate.Flops)
		c.b += float64(cost.Total().Bytes)
	}
	return res, d, nil
}

// settle runs one SettleTime under a circuit.settle span.
func (c *circuitLayers) settle(tr *tracer, i, parent int, x *circuit.Crossbar, vin []float64, opt circuit.TransientOptions) (float64, time.Duration, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := tr.begin("circuit.settle", i, parent)
	t, err := x.SettleTime(vin, opt)
	d := tr.end(id)
	runtime.ReadMemStats(&m1)
	c.settles++
	c.settleNS += float64(d)
	c.settleAllocB += float64(m1.TotalAlloc - m0.TotalAlloc)
	return t, d, err
}

func (c *circuitLayers) metrics(m map[string]float64) {
	if c.solves > 0 {
		n := float64(c.solves)
		m["circuit.solve_ms"] = c.solveNS / n / 1e6
		m["circuit.allocs_per_solve"] = c.allocs / n
		m["circuit.alloc_mb_per_solve"] = c.allocBytes / n / 1e6
	}
	if c.detSolves > 0 {
		n := float64(c.detSolves)
		m["circuit.newton_iters"] = c.newton / n
		m["circuit.cg_iters"] = c.cg / n
		m["circuit.precond_refreshes"] = c.refreshes / n
		m["circuit.warm_start_share"] = c.warm / n
		m["circuit.assembly_mflop"] = c.asm / n / 1e6
		m["circuit.precond_mflop"] = c.pre / n / 1e6
		m["circuit.cg_mflop"] = c.cgf / n / 1e6
		m["circuit.newton_update_mflop"] = c.nu / n / 1e6
		m["circuit.mbytes"] = c.b / n / 1e6
	}
	if c.settles > 0 {
		n := float64(c.settles)
		m["circuit.transient_ms"] = c.settleNS / n / 1e6
		m["circuit.transient_alloc_mb"] = c.settleAllocB / n / 1e6
	}
}

// levelResistances draws a rows×cols population uniform over the device
// levels, in the order validate draws its own.
func levelResistances(rows, cols int, dev device.Model, rng *rand.Rand) ([][]float64, error) {
	r := make([][]float64, rows)
	for m := range r {
		r[m] = make([]float64, cols)
		for n := range r[m] {
			res, err := dev.LevelResistance(rng.Intn(dev.Levels()))
			if err != nil {
				return nil, err
			}
			r[m][n] = res
		}
	}
	return r, nil
}

// tracedOp times o.run under a root span named name and checks it.
func tracedOp(ctx context.Context, tr *tracer, name string, i int, o op) (sample, error) {
	runtime.GC()
	p := readProbe()
	id := tr.begin(name, i, 0)
	err := o.run(ctx)
	s := since(p, tr.end(id))
	if err != nil {
		return s, err
	}
	return s, o.check()
}

// --- cold-256 -----------------------------------------------------------

func (w *cold256) traceOp(ctx context.Context, i int, tr *tracer, det bool) (sample, error) {
	c, vin, err := w.crossbar(i)
	if err != nil {
		return sample{}, err
	}
	var res *circuit.Result
	return tracedOp(ctx, tr, "cold256.op", i, op{
		run: func(ctx context.Context) (err error) {
			// The op's root span is the last one opened.
			res, _, err = w.lay.solve(ctx, tr, i, len(tr.spans), c, vin, circuit.SolveOptions{}, det)
			return err
		},
		check: func() error { return checkSolve(c, vin, res) },
	})
}

// measures is the DC solve: cold-256 makes no transient call, and with no
// SolverState it never warm-starts, so the warm-start share, 0 here by
// construction, comes from table2.
func (w *cold256) measures(metric string) bool {
	if metric == "circuit.warm_start_share" || strings.HasPrefix(metric, "circuit.transient") {
		return false
	}
	return strings.HasPrefix(metric, "circuit.")
}

func (w *cold256) layerMetrics(m map[string]float64) { w.lay.metrics(m) }

// --- table2 and table2-recorded -----------------------------------------

// table2Layers accumulates the traced run of table2 and table2-recorded.
type table2Layers struct {
	circ circuitLayers

	opNS, dcNS, settleNS, passSelfNS float64
	worst                            float64

	// Recorded only: the last op's journal, the det ops' journal totals, and
	// the CPU of recorded ops against the same ops with the recorder off.
	lastEvents       int
	lastBytes        int64
	detOps           int
	events, journalB float64
	recCPU, plainCPU float64
}

func (w *table2) traceOp(ctx context.Context, i int, tr *tracer, det bool) (sample, error) {
	o, rows, err := w.rowsOp(i)
	if err != nil {
		return sample{}, err
	}
	s, err := tracedOp(ctx, tr, "validate.table2", i, o)
	if err != nil {
		return s, err
	}
	l := &w.lay
	l.opNS += float64(s.wall)
	if det {
		for _, r := range *rows {
			l.worst = math.Max(l.worst, 100*math.Abs(r.Error()))
		}
	}
	if !w.recorded {
		return s, w.layerPass(ctx, i, tr, det, *rows)
	}
	if det {
		l.detOps++
		l.events += float64(l.lastEvents)
		l.journalB += float64(l.lastBytes)
	}
	// The same op with the recorder off: its rows must be bit-identical,
	// and its CPU is the base of the recorder's overhead.
	telemetry.DisableTraceEvents()
	runtime.GC()
	c0 := cpuTime()
	plain, err := validate.TableIIContext(ctx, table2Options(w.seed, i))
	l.plainCPU += float64(cpuTime() - c0)
	telemetry.EnableTraceEvents(0)
	if err != nil {
		return s, err
	}
	l.recCPU += float64(s.cpu)
	return s, sameRows(*rows, plain)
}

// layerPass repeats the circuit work of Table II op i call by call: the
// same crossbars, drawn from the same generator in the same order, solved
// 2·inputs times each through one SolverState, then one SettleTime. The
// op's circuit-side rows must come out bit-identical, which shows the pass
// measures what the op ran.
func (w *table2) layerPass(ctx context.Context, i int, tr *tracer, det bool, rows []validate.Row) error {
	opt := table2Options(w.seed, i)
	rng := rand.New(rand.NewSource(opt.Seed + 1))
	dev := device.RRAM()
	wire := tech.MustInterconnect(45)
	p := crossbar.New(opt.Size, opt.Size, dev, wire)
	l := &w.lay
	pass := tr.begin("validate.layer_pass", i, 0)
	var compPower, readPower, dc float64
	vin := make([]float64, opt.Size)
	samples := 0
	for ws := 0; ws < opt.WeightSamples; ws++ {
		r, err := levelResistances(opt.Size, opt.Size, dev, rng)
		if err != nil {
			return err
		}
		c := &circuit.Crossbar{M: opt.Size, N: opt.Size, R: r, WireR: wire.SegmentR, RSense: p.RSense, Dev: dev}
		st := circuit.NewSolverState()
		for s := 0; s < max(1, opt.InputSamples/opt.WeightSamples); s++ {
			for k := range vin {
				vin[k] = p.VDrive * rng.Float64()
			}
			res, d, err := l.circ.solve(ctx, tr, i, pass, c, vin, circuit.SolveOptions{State: st}, det)
			if err != nil {
				return err
			}
			compPower += res.Power
			dc += float64(d)
			for k := range vin {
				vin[k] = 0
			}
			vin[rng.Intn(opt.Size)] = p.AvgDriveRMS()
			if res, d, err = l.circ.solve(ctx, tr, i, pass, c, vin, circuit.SolveOptions{State: st}, det); err != nil {
				return err
			}
			readPower += res.Power
			dc += float64(d)
			samples++
		}
	}
	compPower /= float64(samples)
	readPower /= float64(samples)
	rLat, err := levelResistances(opt.Size, opt.Size, dev, rng)
	if err != nil {
		return err
	}
	cLat := &circuit.Crossbar{M: opt.Size, N: opt.Size, R: rLat, WireR: wire.SegmentR, RSense: p.RSense, Dev: dev}
	for k := range vin {
		vin[k] = p.VDrive
	}
	settle, sd, err := l.circ.settle(tr, i, pass, cLat, vin, circuit.TransientOptions{NodeCap: wire.SegmentC, CellCap: dev.CellCap})
	passDur := tr.end(pass)
	if err != nil {
		return err
	}
	l.dcNS += dc
	l.settleNS += float64(sd)
	l.passSelfNS += float64(passDur) - dc - float64(sd)
	for _, c := range [][2]float64{
		{2 * compPower, rows[0].Circuit},
		{2 * readPower, rows[1].Circuit},
		{settle + dev.SwitchLatency, rows[3].Circuit},
	} {
		if math.Float64bits(c[0]) != math.Float64bits(c[1]) {
			return fmt.Errorf("table2: layer pass gives %v, the op gave %v", c[0], c[1])
		}
	}
	return nil
}

// measures is the circuit and validate layers for table2, through its
// layer pass. table2-recorded makes no layer pass: it measures the
// recorder and the simulated error statistic.
func (w *table2) measures(metric string) bool {
	if w.recorded {
		return metric == "validate.worst_row_err_pct" || strings.HasPrefix(metric, "telemetry.")
	}
	return strings.HasPrefix(metric, "circuit.") || strings.HasPrefix(metric, "validate.")
}

func (w *table2) layerMetrics(m map[string]float64) {
	l := &w.lay
	m["validate.worst_row_err_pct"] = l.worst
	if !w.recorded {
		l.circ.metrics(m)
		if l.opNS > 0 {
			m["validate.dc_share"] = l.dcNS / l.opNS
			m["validate.transient_share"] = l.settleNS / l.opNS
			m["validate.self_share"] = l.passSelfNS / l.opNS
		}
		return
	}
	if l.detOps > 0 {
		m["telemetry.events_per_op"] = l.events / float64(l.detOps)
		m["telemetry.journal_kb_per_op"] = l.journalB / float64(l.detOps) / 1024
	}
	if l.plainCPU > 0 {
		m["telemetry.overhead_share"] = l.recCPU/l.plainCPU - 1
	}
}

// --- dse-sweep ----------------------------------------------------------

// dseLayers accumulates the traced run of dse-sweep.
type dseLayers struct {
	ops                        int
	exploreNS, selectNS, evalN float64
	workers                    int

	detOps               int
	candidates, feasible float64

	evalUS []float64
}

func (w *dseSweep) traceOp(ctx context.Context, i int, tr *tracer, det bool) (sample, error) {
	sp := w.opSpace(i)
	l := &w.lay
	var res dseResult
	s, err := tracedOp(ctx, tr, "dse.op", i, op{
		run: func(ctx context.Context) (err error) {
			parent := len(tr.spans) // the op's root span is the last one opened
			id := tr.begin("dse.explore", i, parent)
			res, err = w.explore(ctx, sp)
			l.exploreNS += float64(tr.end(id))
			if err != nil {
				return err
			}
			id = tr.begin("dse.select", i, parent)
			w.sel(&res)
			l.selectNS += float64(tr.end(id))
			return nil
		},
		check: func() error { return checkSweep(res) },
	})
	if err != nil {
		return s, err
	}
	l.ops++
	l.workers = w.workers
	for _, c := range res.cands {
		l.evalN += float64(c.EvalTime)
	}
	if det {
		l.detOps++
		l.candidates += float64(len(res.cands))
		for _, c := range res.cands {
			if c.Feasible {
				l.feasible++
			}
		}
	}
	return s, w.archPass(ctx, i, tr, sp)
}

// archPass evaluates the op's grid sequentially, one span per
// NewAccelerator+EvaluateContext call, in Explore's traversal order.
func (w *dseSweep) archPass(ctx context.Context, i int, tr *tracer, sp dse.Space) error {
	pass := tr.begin("arch.pass", i, 0)
	defer tr.end(pass)
	for _, node := range sp.WireNodes {
		wire, err := tech.Interconnect(node)
		if err != nil {
			return err
		}
		for _, size := range sp.CrossbarSizes {
			for _, p := range sp.Parallelisms {
				if p > size {
					continue
				}
				d := w.base
				d.CrossbarSize, d.Parallelism, d.Wire = size, p, wire
				id := tr.begin("arch.evaluate", i, pass)
				a, err := arch.NewAccelerator(&d, w.layers, [2]int{128, 128})
				if err != nil {
					tr.end(id)
					return err
				}
				_, err = a.EvaluateContext(ctx)
				w.lay.evalUS = append(w.lay.evalUS, float64(tr.end(id))/1e3)
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (w *dseSweep) measures(metric string) bool {
	return strings.HasPrefix(metric, "arch.") || strings.HasPrefix(metric, "dse.") || strings.HasPrefix(metric, "pool.")
}

func (w *dseSweep) layerMetrics(m map[string]float64) {
	l := &w.lay
	if len(l.evalUS) > 0 {
		m["arch.evaluate_us"], _ = percentile(l.evalUS, 0.5)
	}
	if l.detOps > 0 {
		n := float64(l.detOps)
		m["dse.candidates"] = l.candidates / n
		m["dse.feasible_share"] = l.feasible / l.candidates
	}
	if l.ops > 0 {
		n := float64(l.ops)
		m["dse.select_ms"] = l.selectNS / n / 1e6
		busy := float64(l.workers) * l.exploreNS
		m["pool.parallel_efficiency"] = l.evalN / busy
		m["pool.wait_ms"] = (busy - l.evalN) / n / 1e6
	}
}
