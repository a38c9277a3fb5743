// Command mnsim-dse runs MNSIM's design-space exploration case studies:
// the 2048×1024 large computation bank (Tables IV/V, Figs. 7–9a) and the
// VGG-16 deep CNN (Table VI, Fig. 9b), sweeping crossbar size, computation
// parallelism degree, and interconnect technology.
//
// Usage:
//
//	mnsim-dse -case largebank [-errlimit 0.25]
//	mnsim-dse -case vgg16 [-errlimit 0.5]
//	mnsim-dse -case largebank -metrics-out m.prom -run-out run.json -serve localhost:6060
//	mnsim-dse -case largebank -journal run.jsonl -fail-candidate 64:16:45  # flight recorder + fault injection
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"mnsim"

	"mnsim/internal/arch"
	_ "mnsim/internal/circuit" // register the solver metric families in the telemetry export
	"mnsim/internal/device"
	"mnsim/internal/dse"
	"mnsim/internal/periph"
	"mnsim/internal/pool"
	"mnsim/internal/report"
	"mnsim/internal/tech"
	"mnsim/internal/telemetry"
)

func main() {
	caseName := flag.String("case", "largebank", "case study: largebank or vgg16")
	errLimit := flag.Float64("errlimit", 0, "error-rate constraint (default 0.25 largebank, 0.5 vgg16)")
	csvOut := flag.String("csvout", "", "also dump every explored candidate as CSV to this file (for plotting Figs. 7-8)")
	failCand := flag.String("fail-candidate", "", "inject one evaluation failure at grid point size:p:node (flight-recorder fault injection)")
	workers := pool.AddFlag(flag.CommandLine)
	tel := telemetry.AddFlags(flag.CommandLine)
	flag.Parse()
	tel.Run.SetTool("mnsim-dse")
	tel.Run.SetWorkers(pool.Resolve(*workers))
	tel.Run.SetConfigHash(telemetry.HashStrings(
		"case="+*caseName, fmt.Sprintf("errlimit=%g", *errLimit)))
	// Ctrl-C cancels the sweep mid-candidate instead of killing the
	// process, so the telemetry dumps below still happen; the same context
	// drives the observability server's graceful shutdown.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := tel.StartContext(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "mnsim-dse:", err)
		os.Exit(1)
	}
	err := run(ctx, os.Stdout, *caseName, *errLimit, *csvOut, *failCand, *workers)
	// The telemetry dumps are written even when the run fails: a failed
	// sweep's metrics are exactly what the user wants to inspect.
	tel.Run.SetError(err)
	if ferr := tel.Finish(); err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mnsim-dse:", err)
		os.Exit(1)
	}
}

// dumpCSV writes the full candidate list for external plotting. The
// eval_us column is each candidate's build-and-evaluate wall time from the
// dse.explore/candidate telemetry span.
func dumpCSV(path string, cands []mnsim.Candidate) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	tab := &report.Table{Headers: []string{
		"crossbar_size", "parallelism", "wire_node_nm",
		"area_mm2", "energy_j", "latency_s", "power_w", "error_worst", "feasible", "eval_us",
	}}
	for _, c := range cands {
		tab.AddRow(c.CrossbarSize, c.Parallelism, c.WireNode,
			c.Report.AreaMM2, c.Report.EnergyPerSample, c.Report.PipelineCycle,
			c.Report.Power, c.Report.ErrorWorst, c.Feasible, c.EvalTime.Microseconds())
	}
	return tab.WriteCSV(f)
}

// baseDesign is the 45 nm reference design of both case studies.
func baseDesign(weightBits int, neuron periph.NeuronKind) mnsim.Design {
	return mnsim.Design{
		CrossbarSize:      128,
		WeightPolarity:    2,
		TwoCrossbarSigned: true,
		WeightBits:        weightBits,
		DataBits:          8,
		CMOS:              tech.MustNode(45),
		Wire:              tech.MustInterconnect(45),
		Dev:               device.RRAM(),
		ADC:               periph.ADCVariableSA,
		Neuron:            neuron,
		AreaCoefficient:   arch.DefaultAreaCoefficient,
	}
}

func run(ctx context.Context, w io.Writer, caseName string, errLimit float64, csvOut, failCand string, workers int) error {
	var (
		base   mnsim.Design
		layers []mnsim.LayerDims
		title  string
	)
	switch caseName {
	case "largebank":
		// Section VII.C: 2048×1024 fully-connected layer, 4-bit signed
		// weights, 8-bit signals, 45 nm CMOS.
		base = baseDesign(4, periph.NeuronSigmoid)
		layers = []mnsim.LayerDims{{Rows: 2048, Cols: 1024, Passes: 1}}
		title = "Large Computation Bank (2048x1024)"
		if errLimit == 0 {
			errLimit = 0.25
		}
	case "vgg16":
		// Section VII.D: VGG-16, 8-bit weights and data, error limit 50%,
		// interconnect range widened to 90 nm.
		base = baseDesign(8, periph.NeuronReLU)
		var err error
		layers, err = mnsim.VGG16().Dims()
		if err != nil {
			return err
		}
		title = "Deep CNN (VGG-16)"
		if errLimit == 0 {
			errLimit = 0.50
		}
	default:
		return fmt.Errorf("unknown case %q (want largebank or vgg16)", caseName)
	}

	space := mnsim.DefaultSpace()
	if caseName == "vgg16" {
		space.WireNodes = append(space.WireNodes, 90)
	}
	start := time.Now()
	cands, err := mnsim.ExploreContext(ctx, base, layers, space, mnsim.ExploreOptions{
		ErrorLimit: errLimit,
		Workers:    workers,
		FailEval:   failCand,
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Fprintf(w, "%s: %d designs simulated in %v on %d workers (error limit %.0f%%)\n\n",
		title, len(cands), elapsed.Round(time.Millisecond), pool.Resolve(workers), errLimit*100)
	if csvOut != "" {
		if err := dumpCSV(csvOut, cands); err != nil {
			return err
		}
	}

	// Table IV/VI: one column per optimization target.
	tab := &report.Table{
		Title:   "Design space exploration (optimal design per target)",
		Headers: []string{"Metric", "Area", "Energy", "Latency", "Accuracy"},
	}
	var optima []mnsim.Candidate
	for _, obj := range mnsim.Objectives() {
		best := mnsim.Best(cands, obj)
		if best == nil {
			return fmt.Errorf("no feasible design for objective %v", obj)
		}
		optima = append(optima, *best)
	}
	addMetric := func(name string, f func(c mnsim.Candidate) string) {
		row := make([]any, 0, 5)
		row = append(row, name)
		for _, c := range optima {
			row = append(row, f(c))
		}
		tab.AddRow(row...)
	}
	addMetric("Area (mm2)", func(c mnsim.Candidate) string { return fmt.Sprintf("%.4g", c.Report.AreaMM2) })
	addMetric("Energy per Sample", func(c mnsim.Candidate) string { return report.Joules(c.Report.EnergyPerSample) })
	addMetric("Latency per Cycle", func(c mnsim.Candidate) string { return report.Seconds(c.Report.PipelineCycle) })
	addMetric("Error Rate of Output", func(c mnsim.Candidate) string { return report.Percent(c.Report.ErrorWorst) })
	addMetric("Power", func(c mnsim.Candidate) string { return report.Watts(c.Report.Power) })
	addMetric("Crossbar Size", func(c mnsim.Candidate) string { return fmt.Sprint(c.CrossbarSize) })
	addMetric("Line Tech Node", func(c mnsim.Candidate) string { return fmt.Sprint(c.WireNode) })
	addMetric("Parallelism Degree", func(c mnsim.Candidate) string { return fmt.Sprint(c.Parallelism) })
	if err := tab.Render(w); err != nil {
		return err
	}

	// Table V: trade-off vs crossbar size (accuracy-optimal line tech and
	// parallelism per size).
	fmt.Fprintln(w)
	tv := &report.Table{
		Title:   "Trade-off vs crossbar size (best error per size)",
		Headers: []string{"Crossbar Size", "Error Rate", "Area (mm2)", "Energy", "Line Tech"},
	}
	for _, size := range []int{256, 128, 64, 32, 16, 8} {
		var best *mnsim.Candidate
		for i := range cands {
			c := &cands[i]
			if c.CrossbarSize != size {
				continue
			}
			if best == nil || c.Report.ErrorWorst < best.Report.ErrorWorst {
				best = c
			}
		}
		if best == nil {
			continue
		}
		tv.AddRow(size, report.Percent(best.Report.ErrorWorst),
			fmt.Sprintf("%.4g", best.Report.AreaMM2),
			report.Joules(best.Report.EnergyPerSample), best.WireNode)
	}
	if err := tv.Render(w); err != nil {
		return err
	}

	// Fig. 9: normalized radar factors of the four optima.
	fmt.Fprintln(w)
	radar := dse.RadarFactors(optima)
	fr := &report.Table{
		Title:   "Normalized performance factors (Fig. 9)",
		Headers: []string{"Optimal For", "1/Area", "Energy Eff", "1/Power", "Speed", "Accuracy"},
	}
	for i, obj := range mnsim.Objectives() {
		fr.AddRow(obj.String(), radar[i][0], radar[i][1], radar[i][2], radar[i][3], radar[i][4])
	}
	if err := fr.Render(w); err != nil {
		return err
	}

	// Fig. 7/8: parallelism sweeps at the accuracy-optimal wire node.
	fmt.Fprintln(w)
	f7 := &report.Table{
		Title:   "Area & latency vs parallelism degree (Fig. 7/8, normalized per size)",
		Headers: []string{"Crossbar Size", "Parallelism", "Area (mm2)", "Latency", "Area/Max", "Latency/Max"},
	}
	node := optima[3].WireNode
	for _, size := range []int{32, 128, 512} {
		var rows []mnsim.Candidate
		maxArea, maxLat := 0.0, 0.0
		for _, c := range cands {
			if c.CrossbarSize == size && c.WireNode == node {
				rows = append(rows, c)
				if c.Report.AreaMM2 > maxArea {
					maxArea = c.Report.AreaMM2
				}
				if c.Report.PipelineCycle > maxLat {
					maxLat = c.Report.PipelineCycle
				}
			}
		}
		for _, c := range rows {
			f7.AddRow(size, c.Parallelism, fmt.Sprintf("%.4g", c.Report.AreaMM2),
				report.Seconds(c.Report.PipelineCycle),
				c.Report.AreaMM2/maxArea, c.Report.PipelineCycle/maxLat)
		}
	}
	return f7.Render(w)
}
