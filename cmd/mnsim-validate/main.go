// Command mnsim-validate reproduces the paper's validation experiments
// against the built-in circuit-level solver: Table II (model validation),
// Table III (simulation speed-up), and Fig. 5 (error-rate fit curves).
//
// Usage:
//
//	mnsim-validate -table2 -table3 -fig5        # run everything
//	mnsim-validate -table3 -maxsize 128         # bound the slowest solve
//	mnsim-validate -table3 -metrics-out m.prom  # dump Newton/CG iteration histograms
//	mnsim-validate -table2 -journal run.jsonl   # flight-recorder event journal
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"

	"mnsim/internal/pool"
	"mnsim/internal/report"
	"mnsim/internal/telemetry"
	"mnsim/internal/validate"
)

func main() {
	t2 := flag.Bool("table2", false, "run the Table II model validation")
	t3 := flag.Bool("table3", false, "run the Table III speed-up measurement")
	f5 := flag.Bool("fig5", false, "run the Fig. 5 error-rate fit sweep")
	maxSize := flag.Int("maxsize", 256, "largest crossbar size for the circuit-level solves")
	seed := flag.Int64("seed", 1, "random seed")
	workers := pool.AddFlag(flag.CommandLine)
	tel := telemetry.AddFlags(flag.CommandLine)
	flag.Parse()
	if !*t2 && !*t3 && !*f5 {
		*t2, *t3, *f5 = true, true, true
	}
	tel.Run.SetTool("mnsim-validate")
	tel.Run.SetSeed(*seed)
	tel.Run.SetWorkers(pool.Resolve(*workers))
	tel.Run.SetConfigHash(telemetry.HashStrings(
		fmt.Sprintf("table2=%t", *t2), fmt.Sprintf("table3=%t", *t3),
		fmt.Sprintf("fig5=%t", *f5), fmt.Sprintf("maxsize=%d", *maxSize)))
	// Ctrl-C cancels the in-flight circuit solves (mid-Newton-loop) instead
	// of killing the process, so the telemetry dumps below still happen.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := tel.StartContext(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "mnsim-validate:", err)
		os.Exit(1)
	}
	err := run(ctx, os.Stdout, *t2, *t3, *f5, *maxSize, *seed, *workers)
	tel.Run.SetError(err)
	if ferr := tel.Finish(); err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mnsim-validate:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, w io.Writer, t2, t3, f5 bool, maxSize int, seed int64, workers int) error {
	if t2 {
		rows, err := validate.TableIIContext(ctx, validate.TableIIOptions{
			WeightSamples: 20, InputSamples: 100, Size: 128, Seed: seed, Workers: workers,
		})
		if err != nil {
			return err
		}
		tab := &report.Table{
			Title:   "Table II: validation vs circuit-level simulation (two 128x128 layers)",
			Headers: []string{"Metric", "MNSIM", "Circuit", "Error"},
		}
		for _, r := range rows {
			tab.AddRow(r.Metric, r.Model, r.Circuit, fmt.Sprintf("%+.2f%%", r.Error()*100))
		}
		if err := tab.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if t3 {
		sizes := []int{16, 32, 64, 128, 256}
		var kept []int
		for _, s := range sizes {
			if s <= maxSize {
				kept = append(kept, s)
			}
		}
		rows, err := validate.TableIIIContext(ctx, kept, seed)
		if err != nil {
			return err
		}
		tab := &report.Table{
			Title:   "Table III: simulation time, circuit-level vs MNSIM",
			Headers: []string{"Crossbar Size", "Circuit (s)", "MNSIM (s)", "Speed-Up"},
		}
		for _, r := range rows {
			tab.AddRow(r.Size, r.CircuitTime.Seconds(), r.ModelTime.Seconds(),
				fmt.Sprintf("%.0fx", r.SpeedUp))
		}
		if err := tab.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if f5 {
		sizes := []int{8, 16, 32, 64, 128}
		var kept []int
		for _, s := range sizes {
			if s <= maxSize {
				kept = append(kept, s)
			}
		}
		pts, err := validate.Fig5Context(ctx, kept, []int{90, 45, 28, 22, 18}, workers)
		if err != nil {
			return err
		}
		tab := &report.Table{
			Title:   "Fig. 5: worst-case error rate, model curve vs circuit scatter",
			Headers: []string{"Wire Node (nm)", "Crossbar Size", "Model", "Circuit", "|Diff|"},
		}
		var sumSq float64
		for _, p := range pts {
			tab.AddRow(p.WireNode, p.Size, p.Model, p.Circuit, math.Abs(p.Model-p.Circuit))
			d := p.Model - p.Circuit
			sumSq += d * d
		}
		if err := tab.Render(w); err != nil {
			return err
		}
		fmt.Fprintf(w, "fit RMSE = %.4f over %d points (paper: < 0.01)\n",
			math.Sqrt(sumSq/float64(len(pts))), len(pts))
	}
	return nil
}
