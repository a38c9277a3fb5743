// Command mnsimbench is MNSIM-Go's end-to-end benchmark. It runs one
// workload in a closed loop with one caller (the next op starts when the
// previous one returns), checks every op's outputs, and prints every
// end-to-end metric by name and unit. With --trace 1 it instead makes the
// traced run that gives the per-layer metrics. See README.md.
//
// Run it from the repository root:
//
//	bash mnsimbench/run.sh --workload table2 --seed 1 --seconds 25 --trace 0
//	bash mnsimbench/run.sh --workload table2 --repeat 5     # ABAB sets
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees; every workload
// reports all of them. The error rate is not among them: it is 0 whenever
// the program is correct, so it is reported as the result's failed and
// attempted counts instead. A timing bound is three times the largest
// run-to-run spread measured for it (README.md, "Measured spreads").
var endToEnd = []metricDef{
	{"throughput_ops_s", "1/s", "higher", 0.22},
	{"op_p50_ms", "ms", "lower", 0.22},
	{"op_p80_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.22},
	{"alloc_mb_per_op", "MB", "lower", 0.05},
	{"resident_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced run's metrics. A layer the workload does not call
// is measured on its home workload (see homePasses).
var perLayer = []metricDef{
	{"circuit.solve_ms", "ms", "lower", 0},
	{"circuit.newton_iters", "count", "lower", 0},
	{"circuit.cg_iters", "count", "lower", 0},
	{"circuit.precond_refreshes", "count", "lower", 0},
	{"circuit.warm_start_share", "ratio", "higher", 0},
	{"circuit.assembly_mflop", "Mflop", "lower", 0},
	{"circuit.precond_mflop", "Mflop", "lower", 0},
	{"circuit.cg_mflop", "Mflop", "lower", 0},
	{"circuit.newton_update_mflop", "Mflop", "lower", 0},
	{"circuit.mbytes", "MB", "lower", 0},
	{"circuit.allocs_per_solve", "count", "lower", 0},
	{"circuit.alloc_mb_per_solve", "MB", "lower", 0},
	{"circuit.transient_ms", "ms", "lower", 0},
	{"circuit.transient_alloc_mb", "MB", "lower", 0},
	{"validate.dc_share", "ratio", "lower", 0},
	{"validate.transient_share", "ratio", "lower", 0},
	{"validate.self_share", "ratio", "lower", 0},
	{"validate.worst_row_err_pct", "%", "lower", 0},
	{"arch.evaluate_us", "us", "lower", 0},
	{"dse.candidates", "count", "higher", 0},
	{"dse.feasible_share", "ratio", "higher", 0},
	{"dse.select_ms", "ms", "lower", 0},
	{"pool.parallel_efficiency", "ratio", "higher", 0},
	{"pool.wait_ms", "ms", "lower", 0},
	{"telemetry.events_per_op", "count", "lower", 0},
	{"telemetry.journal_kb_per_op", "KB", "lower", 0},
	{"telemetry.overhead_share", "ratio", "lower", 0},
	{"gc.cycles_per_op", "count", "lower", 0},
	{"gc.cpu_share", "ratio", "lower", 0},
	{"trace.overhead_cpu_ms", "ms", "lower", 0},
}

const (
	// setupRounds is how many times a run sets its workload up; setup_s is
	// the median.
	setupRounds = 3
	// minOps is the fewest timed ops a run makes: p80 needs 50 to leave ten
	// samples beyond it.
	minOps = 50
	// detPairs is how many traced ops, from the first, feed the
	// deterministic per-layer counts; a traced run always makes them.
	detPairs = 3
)

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mnsimbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: table2, cold-256, dse-sweep or table2-recorded")
	seed := fs.Int64("seed", defaultSeed, "workload seed; op inputs derive from it and the op index")
	seconds := fs.Float64("seconds", 25, "how long the timed loop runs")
	trace := fs.Int("trace", 0, "1 makes the traced run, which prints the per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "mnsimbench"), "directory for spans, journals and repeat records")
	repeat := fs.Int("repeat", 0, "run two interleaved sets (ABAB) of this many runs each and summarize them")
	bBin := fs.String("b", "", "with --repeat: binary for set B (default: this one)")
	refKernel := fs.Bool("reference-kernel", false, "serve the host reference kernel on stdin/stdout (the run's own child)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *refKernel {
		if err := serveRef(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(stderr, "mnsimbench:", err)
			return 1
		}
		return 0
	}
	if *name == "" {
		fmt.Fprintln(stderr, "mnsimbench: --workload is required")
		return 2
	}
	if *repeat > 0 {
		return repeatRuns(repeatConfig{
			workload: *name, seed: *seed, seconds: *seconds, runs: *repeat, bBin: *bBin, out: *out,
		}, stdout, stderr)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "mnsimbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "mnsimbench:", err)
		return 1
	}
	defer func() { _ = os.RemoveAll(tmp) }() // best effort: the run's result is already decided
	w, err := newWorkload(*name, *seed, filepath.Join(tmp, "journal"))
	if err != nil {
		fmt.Fprintln(stderr, "mnsimbench:", err)
		return 2
	}
	ctx := context.Background()
	dur := time.Duration(*seconds * float64(time.Second))
	var res result
	var ops int
	if *trace == 1 {
		res, ops, err = runTrace(ctx, w, dur, *out, *name, *seed, tmp, stdout)
	} else {
		res, ops, err = runBench(ctx, w, dur, *name, stdout)
		err = errors.Join(err, w.close())
	}
	if err != nil {
		fmt.Fprintln(stderr, "mnsimbench:", err)
		return 1
	}
	m := newMeta(*name, *seed, *trace == 1, ops)
	if err := printJSONLine(stdout, "meta ", m); err != nil {
		fmt.Fprintln(stderr, "mnsimbench:", err)
		return 1
	}
	if err := printJSONLine(stdout, "", res); err != nil {
		fmt.Fprintln(stderr, "mnsimbench:", err)
		return 1
	}
	return 0
}

func printJSONLine(w io.Writer, prefix string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s%s\n", prefix, b)
	return err
}

// setupAll sets w up setupRounds times and returns the median duration.
func setupAll(ctx context.Context, w workload, t *tally) (float64, error) {
	var setups []float64
	for r := 0; r < setupRounds; r++ {
		start := time.Now()
		tl, err := w.setup(ctx, r)
		if err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		t.add(tl)
	}
	_, med, _ := quartiles(setups)
	return med, nil
}

// runBench is the untraced run: setup, then timed ops until the time is up
// and at least minOps have run, each after one run of the host reference
// kernel. Timings are reported scaled to the kernel's nominal speed, wall
// times by its wall time and CPU time by its CPU time (see hostref.go); the
// summary line prints them as measured.
func runBench(ctx context.Context, w workload, dur time.Duration, name string, stdout io.Writer) (res result, ops int, err error) {
	var t tally
	setupS, err := setupAll(ctx, w, &t)
	if err != nil {
		return result{}, 0, err
	}
	ref, err := startRef()
	if err != nil {
		return result{}, 0, err
	}
	defer func() { err = errors.Join(err, ref.stop()) }()
	var wallMS, refMS, refCPUMS, residentMB []float64
	var cpu time.Duration
	var alloc uint64
	start := time.Now()
	for i := 0; time.Since(start) < dur || len(wallMS) < minOps; i++ {
		rw, rc, err := ref.time()
		if err != nil {
			return result{}, 0, err
		}
		refMS = append(refMS, float64(rw)/1e6)
		refCPUMS = append(refCPUMS, float64(rc)/1e6)
		s, err := runOp(ctx, w, i, &t)
		if err != nil {
			return result{}, 0, err
		}
		wallMS = append(wallMS, float64(s.wall)/1e6)
		residentMB = append(residentMB, float64(s.resident)/1e6)
		cpu += s.cpu
		alloc += s.alloc
	}
	n := len(wallMS)
	p50, _ := percentile(wallMS, 0.5)
	p80, beyond := percentile(wallMS, 0.8)
	_, refMed, _ := quartiles(refMS)
	_, refCPUMed, _ := quartiles(refCPUMS)
	_, resident, _ := quartiles(residentMB)
	scale := refNominalMS / refMed
	cpuScale := refNominalCPUMS / refCPUMed
	m := map[string]float64{
		"throughput_ops_s": windowThroughput(wallMS) / scale,
		"op_p50_ms":        p50 * scale,
		"op_p80_ms":        p80 * scale,
		"cpu_ms_per_op":    float64(cpu) / float64(n) / 1e6 * cpuScale,
		"alloc_mb_per_op":  float64(alloc) / float64(n) / 1e6,
		"resident_mb":      resident,
		"setup_s":          setupS * scale,
	}
	fmt.Fprintf(stdout, "%s: %d timed ops, %.4f ops/s, p50 %.3f ms, p80 %.3f ms, CPU %.3f ms/op (n=%d, %d beyond p80), error_rate %d/%d, as measured\n",
		name, n, 1e3/mean(wallMS), p50, p80, float64(cpu)/float64(n)/1e6, n, beyond, t.failed, t.attempted)
	fmt.Fprintf(stdout, "reference kernel over %d runs: wall median %.3f ms, wall timings scaled by %.4f to its nominal %.0f ms; CPU median %.3f ms, CPU time scaled by %.4f to its nominal %.0f ms\n",
		len(refMS), refMed, scale, refNominalMS, refCPUMed, cpuScale, refNominalCPUMS)
	res, err = newResult(t, m, endToEnd)
	return res, n, err
}

// windowThroughput splits the timed ops, in order, into windows of at
// least ten and returns the median of the windows' ops per wall second: a
// burst of host steal moves one window, not the run's figure.
func windowThroughput(wallMS []float64) float64 {
	k := max(1, len(wallMS)/10)
	per := make([]float64, k)
	for w := range per {
		lo, hi := w*len(wallMS)/k, (w+1)*len(wallMS)/k
		sum := 0.0
		for _, x := range wallMS[lo:hi] {
			sum += x
		}
		per[w] = float64(hi-lo) / (sum / 1e3)
	}
	_, med, _ := quartiles(per)
	return med
}

// runTrace is the traced run. It alternates an untraced op with a traced
// one (the op under spans, then its layer pass) until the time is up and
// detPairs pairs have run. The layers w does not call are then measured on
// their home workloads. It closes w, writes the spans and prints the
// per-layer self-time table and the tracing overhead.
func runTrace(ctx context.Context, w tracedWorkload, dur time.Duration, out, name string, seed int64, tmp string, stdout io.Writer) (result, int, error) {
	var t tally
	if _, err := setupAll(ctx, w, &t); err != nil {
		return result{}, 0, errors.Join(err, w.close())
	}
	tr := newTracer()
	var plainCPU, tracedCPU time.Duration
	var cycles uint64
	var gcCPU, progCPU float64
	pairs := 0
	start := time.Now()
	for k := 0; k < detPairs || time.Since(start) < dur; k++ {
		s, err := runOp(ctx, w, 2*k, &t)
		if err != nil {
			return result{}, 0, errors.Join(err, w.close())
		}
		plainCPU += s.cpu
		s, err = w.traceOp(ctx, 2*k+1, tr, k < detPairs)
		t.attempted++
		if err != nil {
			t.failed++
			reportFailure(2*k+1, err)
		}
		tracedCPU += s.cpu
		cycles += s.cycles
		gcCPU += s.gcCPU
		progCPU += s.progCPU
		pairs++
	}
	if err := w.close(); err != nil {
		return result{}, 0, err
	}
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	w.layerMetrics(m)
	if err := homePasses(ctx, w, seed, tmp, tr, &t, m); err != nil {
		return result{}, 0, err
	}
	n := float64(pairs)
	m["gc.cycles_per_op"] = float64(cycles) / n
	if progCPU > 0 {
		m["gc.cpu_share"] = gcCPU / progCPU
	}
	m["trace.overhead_cpu_ms"] = float64(tracedCPU-plainCPU) / n / 1e6

	path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.json", name, seed))
	if err := writeSpans(path, tr.spans); err != nil {
		return result{}, 0, err
	}
	fmt.Fprintf(stdout, "%s traced run: %d op pairs, %d spans written to %s\n", name, pairs, len(tr.spans), path)
	writeLayerTable(stdout, tr.spans)
	fmt.Fprintf(stdout, "tracing overhead: %.3f ms CPU per op (traced %.3f, untraced %.3f)\n",
		m["trace.overhead_cpu_ms"], float64(tracedCPU)/n/1e6, float64(plainCPU)/n/1e6)
	res, err := newResult(t, m, perLayer)
	return res, 2 * pairs, err
}

// newResult builds the result line, refusing a non-finite value (JSON has
// none) and checking that every declared metric, and nothing else, is set.
func newResult(t tally, m map[string]float64, defs []metricDef) (result, error) {
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}
	if len(m) != len(defs) {
		var extra []string
		for k := range m {
			if _, ok := res.Metrics[k]; !ok {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		return result{}, fmt.Errorf("undeclared metrics %v", extra)
	}
	return res, nil
}
