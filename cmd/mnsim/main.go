// Command mnsim simulates one memristor-based neuromorphic accelerator
// described by a configuration file (Table I format) and prints the
// area / power / latency / energy / accuracy report with a per-bank
// breakdown — the core software flow of Fig. 3.
//
// Usage:
//
//	mnsim -config accelerator.cfg [-csv]
//	mnsim -config accelerator.cfg -metrics-out m.prom -trace-out t.json -serve localhost:6060
//	mnsim -config accelerator.cfg -journal run.jsonl   # flight-recorder event journal
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"mnsim"

	"mnsim/internal/arch"
	_ "mnsim/internal/circuit" // register the solver metric families in the telemetry export
	"mnsim/internal/pool"
	"mnsim/internal/report"
	"mnsim/internal/telemetry"
)

func main() {
	cfgPath := flag.String("config", "", "path to the configuration file (required)")
	csv := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	dump := flag.Bool("dump", false, "print the effective configuration (defaults resolved) before the report")
	optimize := flag.Bool("optimize", false, "also explore crossbar size / parallelism / interconnect around the configured design and print the per-target optima (Section IV.A: MNSIM gives the optimal design when configurations are left open)")
	errLimit := flag.Float64("errlimit", 0.25, "error-rate constraint for -optimize")
	workers := pool.AddFlag(flag.CommandLine)
	tel := telemetry.AddFlags(flag.CommandLine)
	flag.Parse()
	if *cfgPath == "" {
		fmt.Fprintln(os.Stderr, "mnsim: -config is required")
		flag.Usage()
		os.Exit(2)
	}
	tel.Run.SetTool("mnsim")
	tel.Run.SetWorkers(pool.Resolve(*workers))
	// Fingerprint the configuration file so run manifests from the same
	// design can be matched up; a read error surfaces in run() below.
	if b, err := os.ReadFile(*cfgPath); err == nil {
		tel.Run.SetConfigHash(telemetry.HashBytes(b))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := tel.StartContext(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "mnsim:", err)
		os.Exit(1)
	}
	err := run(ctx, os.Stdout, *cfgPath, *csv, *dump, *optimize, *errLimit, *workers)
	tel.Run.SetError(err)
	if ferr := tel.Finish(); err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mnsim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, w io.Writer, cfgPath string, csv, dump, optimize bool, errLimit float64, workers int) error {
	cfg, err := mnsim.LoadConfig(cfgPath)
	if err != nil {
		return err
	}
	if dump {
		if err := cfg.Write(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	d, layers, err := mnsim.DesignFromConfig(cfg)
	if err != nil {
		return err
	}
	a, err := mnsim.Build(&d, layers, [2]int(cfg.InterfaceNumber))
	if err != nil {
		return err
	}
	r, err := a.Evaluate()
	if err != nil {
		return err
	}

	summary := &report.Table{Title: "Accelerator report", Headers: []string{"Metric", "Value"}}
	summary.AddRow("Banks (network depth)", len(a.Banks))
	summary.AddRow("Computation units", a.TotalUnits())
	summary.AddRow("Crossbars", a.TotalCrossbars())
	summary.AddRow("Area", fmt.Sprintf("%.4g mm2", r.AreaMM2))
	summary.AddRow("Power", report.Watts(r.Power))
	summary.AddRow("Energy per sample", report.Joules(r.EnergyPerSample))
	summary.AddRow("Sample latency", report.Seconds(r.SampleLatency))
	summary.AddRow("Pipeline cycle", report.Seconds(r.PipelineCycle))
	summary.AddRow("Output error (worst)", report.Percent(r.ErrorWorst))
	summary.AddRow("Output error (avg)", report.Percent(r.ErrorAvg))

	banks := &report.Table{
		Title:   "Per-bank breakdown",
		Headers: []string{"Bank", "Layer", "Units", "Area (mm2)", "Pass latency", "Pass energy"},
	}
	for i, b := range a.Banks {
		banks.AddRow(i,
			fmt.Sprintf("%dx%d x%d", b.Layer.Rows, b.Layer.Cols, b.Layer.Passes),
			b.Units,
			b.PassPerf.Area*1e-6,
			report.Seconds(b.PassPerf.Latency),
			report.Joules(b.PassPerf.DynamicEnergy))
	}
	// Per-module-class area breakdown of the largest bank (Section V.C's
	// ADC-dominance observation).
	biggest := a.Banks[0]
	for _, b := range a.Banks[1:] {
		if b.PassPerf.Area > biggest.PassPerf.Area {
			biggest = b
		}
	}
	bd := biggest.Breakdown()
	breakdown := &report.Table{
		Title:   "Largest bank area breakdown",
		Headers: []string{"Module class", "Area (mm2)", "Share"},
	}
	for _, class := range arch.SortedByArea(bd) {
		breakdown.AddRow(string(class), bd[class].Area*1e-6, report.Percent(arch.ShareOf(bd, class)))
	}

	if csv {
		if err := summary.WriteCSV(w); err != nil {
			return err
		}
		if err := banks.WriteCSV(w); err != nil {
			return err
		}
		return breakdown.WriteCSV(w)
	}
	if err := summary.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := banks.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := breakdown.Render(w); err != nil {
		return err
	}
	if optimize {
		fmt.Fprintln(w)
		return runOptimize(ctx, w, d, layers, [2]int(cfg.InterfaceNumber), errLimit, workers)
	}
	return nil
}

// runOptimize sweeps the design space around the configured design and
// prints the per-target optimum — the behaviour the paper describes when
// the user leaves configurations open.
func runOptimize(ctx context.Context, w io.Writer, base mnsim.Design, layers []mnsim.LayerDims, iface [2]int, errLimit float64, workers int) error {
	cands, err := mnsim.ExploreContext(ctx, base, layers, mnsim.DefaultSpace(), mnsim.ExploreOptions{
		ErrorLimit: errLimit,
		Interface:  iface,
		Workers:    workers,
	})
	if err != nil {
		return err
	}
	tab := &report.Table{
		Title:   fmt.Sprintf("Optimal designs over %d explored candidates (error <= %.0f%%)", len(cands), errLimit*100),
		Headers: []string{"Target", "Crossbar", "Parallelism", "Wire (nm)", "Area (mm2)", "Energy", "Latency", "Error"},
	}
	for _, obj := range mnsim.Objectives() {
		best := mnsim.Best(cands, obj)
		if best == nil {
			return fmt.Errorf("no feasible design for objective %v", obj)
		}
		tab.AddRow(obj.String(), best.CrossbarSize, best.Parallelism, best.WireNode,
			best.Report.AreaMM2,
			report.Joules(best.Report.EnergyPerSample),
			report.Seconds(best.Report.PipelineCycle),
			report.Percent(best.Report.ErrorWorst))
	}
	return tab.Render(w)
}
