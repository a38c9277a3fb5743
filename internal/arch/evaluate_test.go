package arch_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"mnsim/internal/arch"
	"mnsim/internal/device"
	"mnsim/internal/nn"
	"mnsim/internal/periph"
	"mnsim/internal/tech"
)

func tableVIDesign(size, p, node, weightBits int, neuron periph.NeuronKind) *arch.Design {
	return &arch.Design{
		CrossbarSize: size, Parallelism: p,
		WeightPolarity: 2, TwoCrossbarSigned: true,
		WeightBits: weightBits, DataBits: 8,
		CMOS: tech.MustNode(45), Wire: tech.MustInterconnect(node), Dev: device.RRAM(),
		ADC: periph.ADCVariableSA, Neuron: neuron,
		AreaCoefficient: arch.DefaultAreaCoefficient,
	}
}

// refEvaluate is the accelerator report as EvaluateContext computed it
// before a bank's layer error was shared by the two propagation paths:
// every bank built on its own (no shared units), and Bank.Accuracy run
// once per path.
func refEvaluate(a *arch.Accelerator, layers []arch.LayerDims) (arch.Report, error) {
	var r arch.Report
	areaUM2 := a.InIface.Area + a.OutIface.Area
	staticPower := a.InIface.StaticPower + a.OutIface.StaticPower
	r.SampleLatency = a.InIface.Latency + a.OutIface.Latency
	deltaAvg, deltaWorst := 0.0, 0.0
	var banks []*arch.Bank
	for _, l := range layers {
		b, err := arch.NewBank(a.Design, l)
		if err != nil {
			return arch.Report{}, err
		}
		banks = append(banks, b)
		areaUM2 += b.PassPerf.Area
		staticPower += b.PassPerf.StaticPower
		r.EnergyPerSample += b.SampleEnergy
		r.SampleLatency += b.SampleLatency
		if b.PassPerf.Latency > r.PipelineCycle {
			r.PipelineCycle = b.PassPerf.Latency
		}
		repAvg, err := b.Accuracy(deltaAvg)
		if err != nil {
			return arch.Report{}, err
		}
		repWorst, err := b.Accuracy(deltaWorst)
		if err != nil {
			return arch.Report{}, err
		}
		deltaAvg = repAvg.AvgRate
		deltaWorst = repWorst.WorstRate
	}
	r.EnergyPerSample += a.InIface.DynamicEnergy + a.OutIface.DynamicEnergy
	r.AreaMM2 = areaUM2 * 1e-6
	dyn := 0.0
	for _, b := range banks {
		dyn += b.PassPerf.DynamicEnergy / r.PipelineCycle
	}
	r.Power = dyn + staticPower
	r.ErrorWorst = deltaWorst
	r.ErrorAvg = deltaAvg
	return r, nil
}

func reportBits(r arch.Report) [7]uint64 {
	b := math.Float64bits
	return [7]uint64{b(r.AreaMM2), b(r.EnergyPerSample), b(r.SampleLatency), b(r.PipelineCycle),
		b(r.Power), b(r.ErrorWorst), b(r.ErrorAvg)}
}

type evalCase struct {
	name       string
	layers     []arch.LayerDims
	weightBits int
	neuron     periph.NeuronKind
}

func evalCases(t testing.TB) []evalCase {
	vgg, err := nn.VGG16().Dims()
	if err != nil {
		t.Fatal(err)
	}
	return []evalCase{
		{"vgg16", vgg, 8, periph.NeuronReLU},
		{"largebank", []arch.LayerDims{{Rows: 2048, Cols: 1024, Passes: 1}}, 4, periph.NeuronSigmoid},
	}
}

// TestEvaluateMatchesReference pins every Report field, by bits, to the
// two-path reference over VGG-16 and the large bank, across crossbar
// sizes (powers of two and not), parallelisms and wire nodes, and checks
// that every shared unit equals a fresh NewUnit of its block shape.
func TestEvaluateMatchesReference(t *testing.T) {
	for _, c := range evalCases(t) {
		for _, size := range []int{8, 24, 64, 128, 200, 256, 512, 1024} {
			for _, p := range []int{0, 1, 4, 32, 256} {
				if p > size {
					continue
				}
				for _, node := range []int{18, 45, 90} {
					name := fmt.Sprintf("%s/%d/p%d/%dnm", c.name, size, p, node)
					d := tableVIDesign(size, p, node, c.weightBits, c.neuron)
					a, err := arch.NewAccelerator(d, c.layers, [2]int{128, 128})
					if err != nil {
						if _, ferr := arch.NewBank(d, c.layers[0]); ferr == nil {
							t.Fatalf("%s: %v", name, err)
						}
						continue // unbuildable: a weight does not fit the crossbar
					}
					got, err := a.EvaluateContext(context.Background())
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					want, err := refEvaluate(a, c.layers)
					if err != nil {
						t.Fatalf("%s: reference: %v", name, err)
					}
					if reportBits(got) != reportBits(want) {
						t.Fatalf("%s: report %+v, reference %+v", name, got, want)
					}
					for i, b := range a.Banks {
						fresh, err := arch.NewUnit(d, b.Unit.Rows, b.Unit.Cols)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(b.Unit, fresh) {
							t.Fatalf("%s: bank %d's shared unit differs from a fresh %dx%d unit", name, i, b.Unit.Rows, b.Unit.Cols)
						}
					}
				}
			}
		}
	}
}

// TestAcceleratorSharesUnits: banks with one block shape share one unit,
// so VGG-16 builds a handful of units, not one per layer.
func TestAcceleratorSharesUnits(t *testing.T) {
	vgg := evalCases(t)[0]
	a, err := arch.NewAccelerator(tableVIDesign(128, 0, 45, 8, periph.NeuronReLU), vgg.layers, [2]int{128, 128})
	if err != nil {
		t.Fatal(err)
	}
	units := map[*arch.Unit][2]int{}
	shapes := map[[2]int]bool{}
	for _, b := range a.Banks {
		units[b.Unit] = [2]int{b.Unit.Rows, b.Unit.Cols}
		shapes[[2]int{b.Unit.Rows, b.Unit.Cols}] = true
	}
	if len(units) != len(shapes) || len(units) >= len(a.Banks) {
		t.Fatalf("%d banks built %d units for %d block shapes, want one unit per shape", len(a.Banks), len(units), len(shapes))
	}
}

// BenchmarkEvaluate times one DSE candidate: NewAccelerator plus
// EvaluateContext of VGG-16 on the Table VI base design.
func BenchmarkEvaluate(b *testing.B) {
	vgg := evalCases(b)[0]
	for _, size := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("vgg16/%d", size), func(b *testing.B) {
			d := tableVIDesign(size, 0, 45, vgg.weightBits, vgg.neuron)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a, err := arch.NewAccelerator(d, vgg.layers, [2]int{128, 128})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := a.EvaluateContext(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
