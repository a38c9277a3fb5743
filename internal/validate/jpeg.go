package validate

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"mnsim/internal/accuracy"
	"mnsim/internal/circuit"
	"mnsim/internal/crossbar"
	"mnsim/internal/device"
	"mnsim/internal/nn"
	"mnsim/internal/tech"
)

// jpegWidths is the approximate-computing validation network of
// Section VII.A: the JPEG encoding processed in a 3-layer 64×16×64 NN
// (Li et al., RRAM-based analog approximate computing).
var jpegWidths = []int{64, 16, 64}

// jpegCase is the drawn input of the accuracy-model validation: the
// random JPEG network and one input vector.
type jpegCase struct {
	net   *nn.FCNet
	input []float64
}

// drawJPEG draws the JPEG network's weights, then its input.
func drawJPEG(rng *rand.Rand) (*jpegCase, error) {
	net, err := nn.RandomFCNet("jpeg", rng, jpegWidths...)
	if err != nil {
		return nil, err
	}
	input := make([]float64, jpegWidths[0])
	for i := range input {
		input[i] = rng.Float64() // pixel-style non-negative inputs
	}
	return &jpegCase{net: net, input: input}, nil
}

// accuracy runs the accuracy-model validation: the behaviour-level
// prediction of the average relative accuracy versus a full circuit-level
// inference of the JPEG network, with the same signed-weight mapping
// (positive and negative crossbars subtracted).
func (j *jpegCase) accuracy(ctx context.Context) (model, measured float64, err error) {
	dev := device.RRAM()
	wire := tech.MustInterconnect(45)
	const dataBits = 8
	ideal, err := forwardThroughCrossbars(ctx, j.net, j.input, dev, wire, dataBits, true)
	if err != nil {
		return 0, 0, err
	}
	actual, err := forwardThroughCrossbars(ctx, j.net, j.input, dev, wire, dataBits, false)
	if err != nil {
		return 0, 0, err
	}
	measured, err = nn.RelativeAccuracy(ideal, actual)
	if err != nil {
		return 0, 0, err
	}

	// Behaviour-level prediction: propagate the average-case error through
	// the layer shapes and convert the final deviation rate into a relative
	// accuracy.
	shapes := make([][2]int, 0, len(jpegWidths)-1)
	for i := 0; i+1 < len(jpegWidths); i++ {
		shapes = append(shapes, [2]int{jpegWidths[i], jpegWidths[i+1]})
	}
	p := crossbar.New(64, 64, dev, wire)
	_, final, err := accuracy.EvalNetwork(p, shapes, 1<<dataBits)
	if err != nil {
		return 0, 0, err
	}
	model = 1 - final.Avg
	return model, measured, nil
}

// forwardThroughCrossbars runs one inference with every layer's
// matrix-vector product computed by the crossbar substrate: signed weights
// split onto a positive and a negative crossbar whose outputs subtract
// (Section III.C.1 method 1). ideal selects the interconnect-free linear
// reference (the fixed-point ideal of the accuracy model); otherwise the
// full non-linear circuit with wire resistance is solved.
func forwardThroughCrossbars(ctx context.Context, net *nn.FCNet, input []float64, dev device.Model, wire tech.WireTech, dataBits int, ideal bool) ([]float64, error) {
	cur := append([]float64(nil), input...)
	for li, w := range net.Weights {
		rows, cols := len(w), len(w[0])
		if rows != len(cur) {
			return nil, fmt.Errorf("validate: layer %d expects %d inputs, got %d", li, rows, len(cur))
		}
		p := crossbar.New(rows, cols, dev, wire)
		// Map signed weights onto two unsigned matrices.
		pos := make([][]float64, rows)
		neg := make([][]float64, rows)
		for i := range w {
			pos[i] = make([]float64, cols)
			neg[i] = make([]float64, cols)
			for j, v := range w[i] {
				if v >= 0 {
					pos[i][j] = v
				} else {
					neg[i][j] = -v
				}
			}
		}
		_, rPos, err := p.MapWeights(pos)
		if err != nil {
			return nil, err
		}
		_, rNeg, err := p.MapWeights(neg)
		if err != nil {
			return nil, err
		}
		vin := make([]float64, rows)
		for i, x := range cur {
			vin[i] = math.Max(0, math.Min(1, x)) * p.VDrive
		}
		outPos, err := solveCrossbar(ctx, p, rPos, vin, dev, wire, ideal)
		if err != nil {
			return nil, err
		}
		outNeg, err := solveCrossbar(ctx, p, rNeg, vin, dev, wire, ideal)
		if err != nil {
			return nil, err
		}
		// Subtract, quantize to the read-circuit levels, activate.
		fullScale := p.OutputFullScale()
		out := make([]float64, cols)
		for j := range out {
			y := (outPos[j] - outNeg[j]) / fullScale
			y = nn.Quantize(y, dataBits)
			if li < len(net.Weights)-1 {
				y = nn.Sigmoid(4 * y)
			}
			out[j] = y
		}
		cur = out
	}
	return cur, nil
}

func solveCrossbar(ctx context.Context, p crossbar.Params, r [][]float64, vin []float64, dev device.Model, wire tech.WireTech, ideal bool) ([]float64, error) {
	c := &circuit.Crossbar{
		M: p.Rows, N: p.Cols, R: r,
		WireR: wire.SegmentR, RSense: p.RSense, Dev: dev,
	}
	if ideal {
		c.WireR = 0
		c.Linear = true
		return c.IdealOut(vin)
	}
	res, err := c.SolveContext(ctx, vin, circuit.SolveOptions{})
	if err != nil {
		return nil, err
	}
	return res.VOut, nil
}
