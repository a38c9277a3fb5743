// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Section VII). Each bench performs the experiment that
// regenerates the corresponding result and reports its headline values as
// custom metrics; the cmd tools print the full tables and EXPERIMENTS.md
// records paper-vs-measured.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package mnsim

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"testing"

	"mnsim/internal/accuracy"
	"mnsim/internal/arch"
	"mnsim/internal/crossbar"
	"mnsim/internal/custom"
	"mnsim/internal/device"
	"mnsim/internal/dse"
	"mnsim/internal/periph"
	"mnsim/internal/tech"
	"mnsim/internal/validate"
)

// largeBankDesign is the Section VII.C reference design: 45 nm CMOS, 4-bit
// signed weights, 8-bit signals.
func largeBankDesign() Design {
	return Design{
		CrossbarSize:      128,
		WeightPolarity:    2,
		TwoCrossbarSigned: true,
		WeightBits:        4,
		DataBits:          8,
		CMOS:              tech.MustNode(45),
		Wire:              tech.MustInterconnect(45),
		Dev:               device.RRAM(),
		ADC:               periph.ADCVariableSA,
		Neuron:            periph.NeuronSigmoid,
		AreaCoefficient:   arch.DefaultAreaCoefficient,
	}
}

var largeBankLayer = []LayerDims{{Rows: 2048, Cols: 1024, Passes: 1}}

// BenchmarkTableII runs the model-validation experiment: behaviour-level
// estimates of power, energy, latency and accuracy versus the circuit-level
// solver on the paper's 3-layer NN. The reported metrics are the absolute
// relative errors in percent (the paper's Table II keeps all under 10%).
//
// It runs on one worker, after one untimed run, with the collector paused
// in the timed loop (the runtime allocates after every GC cycle), so its
// B/op and allocs/op count the run alone and repeat exactly: the CI gate
// holds them with the five error metrics.
func BenchmarkTableII(b *testing.B) {
	opt := validate.TableIIOptions{WeightSamples: 4, InputSamples: 12, Size: 64, Seed: 1, Workers: 1}
	if _, err := validate.TableII(opt); err != nil {
		b.Fatal(err)
	}
	pct := debug.SetGCPercent(-1)
	limit := debug.SetMemoryLimit(512 << 20)
	defer func() {
		debug.SetMemoryLimit(limit)
		debug.SetGCPercent(pct)
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := validate.TableII(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(math.Abs(r.Error())*100, shortMetric(r.Metric)+"_%err")
			}
		}
	}
	b.StopTimer()
}

func shortMetric(m string) string {
	switch {
	case len(m) >= 11 && m[:11] == "Computation":
		if m[12] == 'P' {
			return "comp_power"
		}
		return "comp_energy"
	case m[:4] == "Read":
		return "read_power"
	case m[:7] == "Latency":
		return "latency"
	default:
		return "accuracy"
	}
}

// BenchmarkTableIII_Circuit and BenchmarkTableIII_MNSIM time the two
// simulators per crossbar size; the speed-up of Table III is their ratio.
func BenchmarkTableIII_Circuit(b *testing.B) {
	for _, size := range []int{16, 32, 64, 128} {
		b.Run(fmt.Sprintf("size%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := validate.TableIIIContext(context.Background(), []int{size}, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(rows[0].SpeedUp, "speedup_x")
				}
			}
		})
	}
}

func BenchmarkTableIII_MNSIM(b *testing.B) {
	dev := device.RRAM()
	wire := tech.MustInterconnect(45)
	for _, size := range []int{16, 32, 64, 128, 256} {
		b.Run(fmt.Sprintf("size%d", size), func(b *testing.B) {
			p := crossbar.New(size, size, dev, wire)
			for i := 0; i < b.N; i++ {
				_ = p.Area()
				_ = p.ComputePower()
				_ = p.Latency()
				if _, err := accuracy.Eval(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTableIV explores the large computation bank's full design space
// and reports the four per-target optima (Table IV).
func BenchmarkTableIV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cands, err := Explore(largeBankDesign(), largeBankLayer, DefaultSpace(),
			ExploreOptions{ErrorLimit: 0.25})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(cands)), "designs")
			for _, obj := range Objectives() {
				c := Best(cands, obj)
				if c == nil {
					b.Fatalf("no feasible design for %v", obj)
				}
				b.ReportMetric(float64(c.CrossbarSize), "opt_"+obj.String()+"_size")
			}
		}
	}
}

// BenchmarkTableV reports the error/area/energy trade-off versus crossbar
// size (Table V): the per-size best error rate in percent.
func BenchmarkTableV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cands, err := Explore(largeBankDesign(), largeBankLayer, Space{
			CrossbarSizes: []int{8, 16, 32, 64, 128, 256},
			Parallelisms:  []int{1},
			WireNodes:     []int{18, 22, 28, 36, 45},
		}, ExploreOptions{ErrorLimit: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i != 0 {
			continue
		}
		for _, size := range []int{8, 64, 256} {
			best := math.Inf(1)
			for _, c := range cands {
				if c.CrossbarSize == size && c.Report.ErrorWorst < best {
					best = c.Report.ErrorWorst
				}
			}
			b.ReportMetric(best*100, fmt.Sprintf("err%%_size%d", size))
		}
	}
}

// BenchmarkTableVI explores the VGG-16 accelerator design space (Table VI).
func BenchmarkTableVI(b *testing.B) {
	layers, err := VGG16().Dims()
	if err != nil {
		b.Fatal(err)
	}
	base := largeBankDesign()
	base.WeightBits = 8
	base.Neuron = periph.NeuronReLU
	space := DefaultSpace()
	space.WireNodes = append(space.WireNodes, 90)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands, err := Explore(base, layers, space, ExploreOptions{ErrorLimit: 0.5})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			acc := Best(cands, MaxAccuracy)
			b.ReportMetric(float64(acc.CrossbarSize), "opt_acc_size")
			b.ReportMetric(acc.Report.ErrorWorst*100, "opt_acc_err%")
			area := Best(cands, MinArea)
			b.ReportMetric(area.Report.AreaMM2, "opt_area_mm2")
		}
	}
}

// BenchmarkTableVII simulates the PRIME FF-subarray and the ISAAC tile.
func BenchmarkTableVII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prime, err := custom.PRIME()
		if err != nil {
			b.Fatal(err)
		}
		isaac, err := custom.ISAAC()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(prime.AreaMM2, "prime_mm2")
			b.ReportMetric(isaac.AreaMM2, "isaac_mm2")
			b.ReportMetric(isaac.Latency*1e6, "isaac_us")
		}
	}
}

// BenchmarkFig5 regenerates the error-rate fit experiment: model curves vs
// circuit-level scatter across size and interconnect node, reporting the
// fit RMSE (paper: < 0.01).
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := validate.Fig5Context(context.Background(), []int{8, 16, 32, 64}, []int{90, 45, 28, 18}, 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var sumSq float64
			for _, p := range pts {
				d := p.Model - p.Circuit
				sumSq += d * d
			}
			b.ReportMetric(math.Sqrt(sumSq/float64(len(pts))), "rmse")
		}
	}
}

// BenchmarkFig6 regenerates the layout-calibration experiment: the model
// estimate for the 32×32 1T1R crossbar with its computation-oriented
// decoder at 130 nm versus the measured layout area, and the correction
// coefficient MNSIM folds back into area estimation.
func BenchmarkFig6(b *testing.B) {
	n130 := tech.MustNode(130)
	for i := 0; i < b.N; i++ {
		dec, err := periph.Decoder(n130, 32, true)
		if err != nil {
			b.Fatal(err)
		}
		model, measured, coeff := crossbar.LayoutCalibration(dec.Area)
		if i == 0 {
			b.ReportMetric(model, "model_um2")
			b.ReportMetric(measured, "layout_um2")
			b.ReportMetric(coeff, "coefficient")
		}
	}
}

// BenchmarkFig7 sweeps the computation parallelism degree per crossbar size
// and reports the normalized area span (Fig. 7's observation: the area
// reduction from lowering p is larger for small crossbars).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cands, err := Explore(largeBankDesign(), largeBankLayer, Space{
			CrossbarSizes: []int{32, 512},
			Parallelisms:  []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512},
			WireNodes:     []int{45},
		}, ExploreOptions{ErrorLimit: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i != 0 {
			continue
		}
		for _, size := range []int{32, 512} {
			minA, maxA := math.Inf(1), 0.0
			for _, c := range cands {
				if c.CrossbarSize != size {
					continue
				}
				minA = math.Min(minA, c.Report.AreaMM2)
				maxA = math.Max(maxA, c.Report.AreaMM2)
			}
			b.ReportMetric(minA/maxA, fmt.Sprintf("area_min/max_size%d", size))
		}
	}
}

// BenchmarkFig8 builds the area–latency Pareto front of the parallelism
// sweep (Fig. 8's trade-off with its inflection points).
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cands, err := Explore(largeBankDesign(), largeBankLayer, Space{
			CrossbarSizes: []int{32, 64, 128, 256},
			Parallelisms:  []int{1, 2, 4, 8, 16, 32, 64, 128, 256},
			WireNodes:     []int{45},
		}, ExploreOptions{ErrorLimit: 1})
		if err != nil {
			b.Fatal(err)
		}
		front := dse.Pareto(cands)
		if i == 0 {
			b.ReportMetric(float64(len(front)), "front_size")
			b.ReportMetric(float64(len(cands)), "designs")
		}
	}
}

// BenchmarkFig9 computes the normalized five-factor radar of the four
// optimal designs for (a) the large bank and (b) VGG-16.
func BenchmarkFig9(b *testing.B) {
	vggLayers, err := VGG16().Dims()
	if err != nil {
		b.Fatal(err)
	}
	vggBase := largeBankDesign()
	vggBase.WeightBits = 8
	vggBase.Neuron = periph.NeuronReLU
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for variant, cfg := range map[string]struct {
			layers []LayerDims
			base   Design
			limit  float64
		}{
			"a": {largeBankLayer, largeBankDesign(), 0.25},
			"b": {vggLayers, vggBase, 0.5},
		} {
			cands, err := Explore(cfg.base, cfg.layers, DefaultSpace(), ExploreOptions{ErrorLimit: cfg.limit})
			if err != nil {
				b.Fatal(err)
			}
			var optima []Candidate
			for _, obj := range Objectives() {
				c := Best(cands, obj)
				if c == nil {
					b.Fatalf("no feasible design for %v", obj)
				}
				optima = append(optima, *c)
			}
			radar := dse.RadarFactors(optima)
			if i == 0 {
				// The spread of the accuracy factor across optima:
				// Fig. 9's observation that single-metric optimization
				// sacrifices the others.
				minAcc := 1.0
				for _, row := range radar {
					minAcc = math.Min(minAcc, row[4])
				}
				b.ReportMetric(minAcc, "min_accuracy_factor_"+variant)
			}
		}
	}
}
