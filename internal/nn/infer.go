package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// FCNet is a concrete fully-connected network with weight values, used by
// the functional accuracy validation (the JPEG-encoding application of
// Section VII.A). Weights[l][i][j] connects input i of layer l to output j;
// values lie in [-1, 1] for signed networks or [0, 1] for unsigned ones.
type FCNet struct {
	Name    string
	Weights [][][]float64
}

// Activation is the neuron non-linearity applied between layers.
type Activation func(float64) float64

// Sigmoid is the DNN reference neuron.
func Sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-4*x)) }

// Identity passes values through (for regression-style output layers).
func Identity(x float64) float64 { return x }

// RandomFCNet builds a synthetic network with the given layer widths and
// weights drawn uniformly from [-1, 1]. The accuracy validation never
// depends on trained weight values — only on the statistics of the
// deviations — so synthetic weights preserve the experiment (DESIGN.md).
func RandomFCNet(name string, rng *rand.Rand, widths ...int) (*FCNet, error) {
	if len(widths) < 2 {
		return nil, fmt.Errorf("nn: network %q needs at least 2 widths", name)
	}
	net := &FCNet{Name: name}
	for l := 0; l+1 < len(widths); l++ {
		in, out := widths[l], widths[l+1]
		if in < 1 || out < 1 {
			return nil, fmt.Errorf("nn: network %q layer %d has invalid shape %dx%d", name, l, in, out)
		}
		w := make([][]float64, in)
		for i := range w {
			w[i] = make([]float64, out)
			for j := range w[i] {
				w[i][j] = rng.Float64()*2 - 1
			}
		}
		net.Weights = append(net.Weights, w)
	}
	return net, nil
}

// Quantize rounds v ∈ [-1,1] to a signed fixed-point value with the given
// total bits (one sign bit).
func Quantize(v float64, bits int) float64 {
	if bits < 2 {
		return v
	}
	scale := float64(int(1)<<uint(bits-1)) - 1
	q := math.Round(v*scale) / scale
	return math.Max(-1, math.Min(1, q))
}

// ForwardOptions controls a functional inference pass.
type ForwardOptions struct {
	// DataBits quantizes layer inputs/outputs (0 = no quantization).
	DataBits int
	// WeightBits quantizes the weights (0 = no quantization).
	WeightBits int
	// Act is the hidden-layer activation (Identity if nil).
	Act Activation
	// Deviate, when non-nil, perturbs each layer's pre-activation vector in
	// place — the hook where the crossbar error model (or a circuit-level
	// solve) injects computing error. The layer index is passed through.
	Deviate func(layer int, v []float64)
}

// Forward runs the network on one input vector.
func (n *FCNet) Forward(input []float64, opt ForwardOptions) ([]float64, error) {
	if len(n.Weights) == 0 {
		return nil, fmt.Errorf("nn: network %q has no layers", n.Name)
	}
	act := opt.Act
	if act == nil {
		act = Identity
	}
	cur := make([]float64, len(input))
	copy(cur, input)
	quant := func(v []float64, bits int) {
		if bits > 0 {
			for i := range v {
				v[i] = Quantize(v[i], bits)
			}
		}
	}
	quant(cur, opt.DataBits)
	for l, w := range n.Weights {
		if len(w) != len(cur) {
			return nil, fmt.Errorf("nn: layer %d of %q expects %d inputs, got %d", l, n.Name, len(w), len(cur))
		}
		out := make([]float64, len(w[0]))
		for i, row := range w {
			x := cur[i]
			if x == 0 {
				continue
			}
			for j, wij := range row {
				wq := wij
				if opt.WeightBits > 0 {
					wq = Quantize(wij, opt.WeightBits)
				}
				out[j] += wq * x
			}
		}
		// Normalise the accumulation to keep signals in range, as the
		// crossbar's analog scaling does.
		scale := 1 / math.Sqrt(float64(len(w)))
		for j := range out {
			out[j] *= scale
		}
		if opt.Deviate != nil {
			opt.Deviate(l, out)
		}
		if l < len(n.Weights)-1 {
			for j := range out {
				out[j] = act(out[j])
			}
		}
		quant(out, opt.DataBits)
		cur = out
	}
	return cur, nil
}

// RelativeAccuracy compares a deviated output against the ideal fixed-point
// reference: 1 − mean(|got−want|) / range, the "Average Relative Accuracy"
// metric of Table II. The range is the observed span of the reference
// vector (falling back to 1 when the reference is constant).
func RelativeAccuracy(want, got []float64) (float64, error) {
	if len(want) != len(got) || len(want) == 0 {
		return 0, fmt.Errorf("nn: relative accuracy needs equal non-empty vectors, got %d vs %d", len(want), len(got))
	}
	lo, hi := want[0], want[0]
	for _, v := range want {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	span := hi - lo
	if span == 0 {
		span = 1
	}
	sum := 0.0
	for i := range want {
		sum += math.Abs(want[i] - got[i])
	}
	acc := 1 - sum/float64(len(want))/span
	return acc, nil
}

// UniformDeviation returns a Deviate hook that perturbs every value by a
// uniform relative error within ±rate — the behaviour-level error-injection
// model driven by the accuracy package's per-layer ε.
func UniformDeviation(rate float64, rng *rand.Rand) func(int, []float64) {
	return func(_ int, v []float64) {
		for i := range v {
			v[i] *= 1 + rate*(2*rng.Float64()-1)
		}
	}
}
