// Library micro-benchmarks: the throughput of the core engines downstream
// users call in loops (the behavioural evaluation, the explorer, the weight
// mapper, the functional simulator, and the circuit solver). These are not
// paper experiments — they document the cost of the library's own
// primitives.
package mnsim

import (
	"math/rand"
	"testing"

	"mnsim/internal/accuracy"
	"mnsim/internal/crossbar"
	"mnsim/internal/device"
	"mnsim/internal/funcsim"
	"mnsim/internal/mapper"
	"mnsim/internal/nn"
	"mnsim/internal/tech"
)

// BenchmarkEvaluateAccelerator measures one full build+evaluate of the
// large-bank accelerator — the inner loop of every design-space traversal.
func BenchmarkEvaluateAccelerator(b *testing.B) {
	d := largeBankDesign()
	for i := 0; i < b.N; i++ {
		a, err := Build(&d, largeBankLayer, [2]int{128, 128})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.Evaluate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccuracyEval measures the closed-form accuracy model.
func BenchmarkAccuracyEval(b *testing.B) {
	p := crossbar.New(128, 128, device.RRAM(), tech.MustInterconnect(45))
	for i := 0; i < b.N; i++ {
		if _, err := accuracy.Eval(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapper measures mapping a 512×512 weight matrix onto crossbars.
func BenchmarkMapper(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w := make([][]float64, 512)
	for r := range w {
		w[r] = make([]float64, 512)
		for c := range w[r] {
			w[r][c] = rng.Float64()*2 - 1
		}
	}
	d := largeBankDesign()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapper.Map(&d, w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFuncsimSample measures one functionally executed sample of a
// mapped 256-64-10 network.
func BenchmarkFuncsimSample(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	net, err := nn.RandomFCNet("bench", rng, 256, 64, 10)
	if err != nil {
		b.Fatal(err)
	}
	d := largeBankDesign()
	m, err := funcsim.NewMachine(&d, net)
	if err != nil {
		b.Fatal(err)
	}
	input := make([]float64, 256)
	for i := range input {
		input[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(input, funcsim.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteCarlo measures the statistical accuracy engine per 1000
// trials on one worker.
func BenchmarkMonteCarlo(b *testing.B) {
	p := crossbar.New(64, 64, device.RRAM(), tech.MustInterconnect(45))
	for i := 0; i < b.N; i++ {
		if _, err := accuracy.MonteCarlo(p, accuracy.MCOptions{Trials: 1000, Sigma: 0.1, Seed: 3, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
