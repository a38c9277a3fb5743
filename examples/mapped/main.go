// Mapped demonstrates the full deployment loop: a trained (here synthetic)
// network is decomposed onto crossbars by the weight mapper, programmed
// through the controller's WRITE instructions, executed functionally the
// way the hardware computes (per-block analog MVM, signed merge, ADC
// quantization, adder tree), and its end-to-end accuracy under the
// behaviour-level error model is measured — alongside the Monte-Carlo
// distribution of the per-crossbar error.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"mnsim/internal/accuracy"
	"mnsim/internal/arch"
	"mnsim/internal/crossbar"
	"mnsim/internal/device"
	"mnsim/internal/funcsim"
	"mnsim/internal/mapper"
	"mnsim/internal/nn"
	"mnsim/internal/periph"
	"mnsim/internal/tech"
)

func main() {
	d := &arch.Design{
		CrossbarSize:      64,
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
	rng := rand.New(rand.NewSource(42))
	net, err := nn.RandomFCNet("demo", rng, 96, 32, 10)
	if err != nil {
		log.Fatal(err)
	}

	// Map each layer and inspect the first image.
	img, err := mapper.Map(d, net.Weights[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("layer 0 (96x32) maps to %d blocks, %d programmed cells\n",
		len(img.Blocks), img.CellCount())
	recon, err := img.Reconstruct()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read-back check: w[0][0]=%.4f reconstructed as %.4f\n",
		net.Weights[0][0][0], recon[0][0])

	// Build the machine, program it, run samples.
	m, err := funcsim.NewMachine(d, net)
	if err != nil {
		log.Fatal(err)
	}
	ctl := arch.Controller{Accel: m.Accel}
	st, err := ctl.Run(arch.ProgramNetwork(m.Accel))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("programming: %.3g s, %.3g J\n", st.Time, st.Energy)

	inputs := make([][]float64, 8)
	for i := range inputs {
		inputs[i] = make([]float64, 96)
		for j := range inputs[i] {
			inputs[i][j] = rng.Float64()
		}
	}
	acc, err := m.Accuracy(inputs, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("end-to-end relative accuracy under the error model: %.2f%%\n", acc*100)

	// The Monte-Carlo view of one crossbar's error distribution.
	mc, err := accuracy.MonteCarlo(crossbar.New(64, 64, d.Dev, d.Wire),
		accuracy.MCOptions{Trials: 2000, Sigma: 0.1, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("64x64 crossbar error (sigma=10%%): mean %.3f%%, p95 %.3f%%, p99 %.3f%%, max %.3f%%\n",
		mc.Mean*100, mc.P95*100, mc.P99*100, mc.Max*100)
}
