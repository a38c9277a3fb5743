package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVGG16Topology(t *testing.T) {
	v := VGG16()
	if got := v.NeuromorphicLayers(); got != 16 {
		t.Fatalf("VGG-16 neuromorphic layers = %d, want 16", got)
	}
	dims, err := v.Dims()
	if err != nil {
		t.Fatal(err)
	}
	if len(dims) != 16 {
		t.Fatalf("VGG-16 banks = %d, want 16", len(dims))
	}
	// First conv: 3x3x3 = 27 rows, 64 cols, 224x224 passes.
	if dims[0].Rows != 27 || dims[0].Cols != 64 || dims[0].Passes != 224*224 {
		t.Errorf("conv1_1 dims: %+v", dims[0])
	}
	// conv1_2 is followed by a pool: the bank folds it in.
	if dims[1].PoolK != 2 {
		t.Errorf("conv1_2 should fold the 2x2 pool: %+v", dims[1])
	}
	if dims[0].PoolK != 0 {
		t.Errorf("conv1_1 has no pool: %+v", dims[0])
	}
	// Last conv block: 3x3x512 = 4608 rows, 512 cols, 14x14 passes.
	if dims[12].Rows != 4608 || dims[12].Cols != 512 || dims[12].Passes != 14*14 {
		t.Errorf("conv5_1 dims: %+v", dims[12])
	}
	// FC6 consumes the flattened 7x7x512 feature map.
	if dims[13].Rows != 25088 || dims[13].Cols != 4096 || dims[13].Passes != 1 {
		t.Errorf("fc6 dims: %+v", dims[13])
	}
	if dims[15].Cols != 1000 {
		t.Errorf("fc8 dims: %+v", dims[15])
	}
	// Cascaded conv layers carry Eq. 6 line buffers.
	if dims[0].OutBufLen != 224*(3-1)+3 {
		t.Errorf("conv1_1 line buffer = %d, want %d", dims[0].OutBufLen, 224*2+3)
	}
	// The very last conv (before FC) has no next conv: plain registers.
	if dims[12+2].OutBufLen != 0 {
		t.Errorf("fc should have no line buffer: %+v", dims[14])
	}
}

func TestCaffeNetTopology(t *testing.T) {
	c := CaffeNet()
	if got := c.NeuromorphicLayers(); got != 8 {
		t.Fatalf("CaffeNet neuromorphic layers = %d, want 8", got)
	}
	dims, err := c.Dims()
	if err != nil {
		t.Fatal(err)
	}
	// conv1: 11x11x3 = 363 rows, 96 cols, output (227-11)/4+1 = 55.
	if dims[0].Rows != 363 || dims[0].Cols != 96 || dims[0].Passes != 55*55 {
		t.Errorf("conv1 dims: %+v", dims[0])
	}
	// fc6 consumes 6x6x256 = 9216.
	if dims[5].Rows != 9216 {
		t.Errorf("fc6 dims: %+v", dims[5])
	}
}

func TestMLP(t *testing.T) {
	// The paper's JPEG-encoding network: fully connected 64-16-64.
	m := Network{Name: "jpeg", Layers: []Layer{{Type: FC, In: 64, Out: 16}, {Type: FC, In: 16, Out: 64}}}
	dims, err := m.Dims()
	if err != nil {
		t.Fatal(err)
	}
	if len(dims) != 2 || dims[0].Rows != 64 || dims[0].Cols != 16 || dims[1].Rows != 16 || dims[1].Cols != 64 {
		t.Fatalf("MLP dims: %+v", dims)
	}
}

func TestDimsErrors(t *testing.T) {
	cases := []Network{
		{Name: "empty"},
		{Name: "conv-no-input", Layers: []Layer{{Type: Conv, OutChannels: 4, KernelW: 3, KernelH: 3, Stride: 1}}},
		{Name: "bad-conv", InputW: 8, InputH: 8, InputC: 1, Layers: []Layer{{Type: Conv, OutChannels: 0, KernelW: 3, KernelH: 3, Stride: 1}}},
		{Name: "kernel-too-big", InputW: 2, InputH: 2, InputC: 1, Layers: []Layer{{Type: Conv, OutChannels: 4, KernelW: 5, KernelH: 5, Stride: 1}}},
		{Name: "bad-pool", InputW: 8, InputH: 8, InputC: 1, Layers: []Layer{{Type: Conv, OutChannels: 4, KernelW: 3, KernelH: 3, Stride: 1}, {Type: Pool}}},
		{Name: "bad-fc", Layers: []Layer{{Type: FC, In: 0, Out: 4}}},
		{Name: "fc-mismatch", InputW: 4, InputH: 4, InputC: 1, Layers: []Layer{{Type: FC, In: 99, Out: 4}}},
		{Name: "pool-only", InputW: 4, InputH: 4, InputC: 1, Layers: []Layer{{Type: Pool, PoolK: 2, PoolStride: 2}}},
		{Name: "unknown", Layers: []Layer{{Type: LayerType(9)}}},
	}
	for _, n := range cases {
		if _, err := n.Dims(); err == nil {
			t.Errorf("%s: Dims accepted invalid network", n.Name)
		}
	}
}

func TestLayerTypeString(t *testing.T) {
	for typ, want := range map[LayerType]string{Conv: "Conv", FC: "FC", Pool: "Pool"} {
		if typ.String() != want {
			t.Errorf("%d -> %q", int(typ), typ.String())
		}
	}
	if LayerType(9).String() != "LayerType(9)" {
		t.Error("unknown LayerType String")
	}
}

func TestRandomFCNet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net, err := RandomFCNet("jpeg", rng, 64, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	var shapes [][2]int
	for _, w := range net.Weights {
		shapes = append(shapes, [2]int{len(w), len(w[0])})
	}
	if len(shapes) != 2 || shapes[0] != [2]int{64, 16} || shapes[1] != [2]int{16, 64} {
		t.Fatalf("shapes: %v", shapes)
	}
	for _, w := range net.Weights {
		for _, row := range w {
			for _, v := range row {
				if v < -1 || v > 1 {
					t.Fatalf("weight %v outside [-1,1]", v)
				}
			}
		}
	}
	if _, err := RandomFCNet("x", rng, 4); err == nil {
		t.Error("single width accepted")
	}
	if _, err := RandomFCNet("x", rng, 4, 0); err == nil {
		t.Error("zero width accepted")
	}
}

func TestQuantize(t *testing.T) {
	if got := Quantize(0.5, 8); math.Abs(got-0.5) > 1.0/127 {
		t.Errorf("Quantize(0.5, 8) = %v", got)
	}
	if got := Quantize(2.0, 8); got != 1 {
		t.Errorf("clamp high: %v", got)
	}
	if got := Quantize(-2.0, 8); got != -1 {
		t.Errorf("clamp low: %v", got)
	}
	if got := Quantize(0.3, 0); got != 0.3 {
		t.Errorf("bits<2 should pass through: %v", got)
	}
	// 2-bit: levels {-1, 0, 1}.
	if got := Quantize(0.6, 2); got != 1 {
		t.Errorf("Quantize(0.6, 2) = %v", got)
	}
}

// Property: quantization error is bounded by half an LSB inside [-1,1].
func TestQuantizeErrorBound(t *testing.T) {
	f := func(raw float64) bool {
		v := math.Mod(raw, 1)
		if math.IsNaN(v) {
			return true
		}
		q := Quantize(v, 8)
		return math.Abs(q-v) <= 0.5/127+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestForwardIdentityNetwork(t *testing.T) {
	// A hand-built 2-2 identity-weight layer: output = input / sqrt(2).
	net := &FCNet{Name: "id", Weights: [][][]float64{{{1, 0}, {0, 1}}}}
	out, err := net.Forward([]float64{0.5, -0.25}, ForwardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := 1 / math.Sqrt(2)
	if math.Abs(out[0]-0.5*s) > 1e-12 || math.Abs(out[1]+0.25*s) > 1e-12 {
		t.Fatalf("Forward = %v", out)
	}
}

func TestForwardErrors(t *testing.T) {
	empty := &FCNet{Name: "empty"}
	if _, err := empty.Forward([]float64{1}, ForwardOptions{}); err == nil {
		t.Error("empty network accepted")
	}
	net := &FCNet{Name: "x", Weights: [][][]float64{{{1}, {1}}}}
	if _, err := net.Forward([]float64{1}, ForwardOptions{}); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestForwardDeviationReducesAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net, err := RandomFCNet("jpeg", rng, 64, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	input := make([]float64, 64)
	for i := range input {
		input[i] = rng.Float64()*2 - 1
	}
	opt := ForwardOptions{DataBits: 8, WeightBits: 4, Act: Sigmoid}
	ideal, err := net.Forward(input, opt)
	if err != nil {
		t.Fatal(err)
	}
	optDev := opt
	optDev.Deviate = UniformDeviation(0.10, rng)
	got, err := net.Forward(input, optDev)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := RelativeAccuracy(ideal, got)
	if err != nil {
		t.Fatal(err)
	}
	if acc >= 1 || acc < 0.7 {
		t.Fatalf("relative accuracy %v outside (0.7, 1)", acc)
	}
	// Larger deviation, lower accuracy (averaged over trials).
	sum5, sum20 := 0.0, 0.0
	for trial := 0; trial < 20; trial++ {
		o5 := opt
		o5.Deviate = UniformDeviation(0.05, rng)
		o20 := opt
		o20.Deviate = UniformDeviation(0.20, rng)
		g5, _ := net.Forward(input, o5)
		g20, _ := net.Forward(input, o20)
		a5, _ := RelativeAccuracy(ideal, g5)
		a20, _ := RelativeAccuracy(ideal, g20)
		sum5 += a5
		sum20 += a20
	}
	if sum20 >= sum5 {
		t.Fatalf("20%% deviation accuracy %v should be below 5%% deviation %v", sum20/20, sum5/20)
	}
}

func TestRelativeAccuracy(t *testing.T) {
	if acc, err := RelativeAccuracy([]float64{0, 1}, []float64{0, 1}); err != nil || acc != 1 {
		t.Fatalf("perfect accuracy = %v, %v", acc, err)
	}
	acc, err := RelativeAccuracy([]float64{0, 1}, []float64{0.1, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(acc-0.9) > 1e-12 {
		t.Fatalf("accuracy = %v, want 0.9", acc)
	}
	if _, err := RelativeAccuracy([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := RelativeAccuracy(nil, nil); err == nil {
		t.Error("empty vectors accepted")
	}
	// Constant reference falls back to unit range.
	if acc, err := RelativeAccuracy([]float64{0.5, 0.5}, []float64{0.5, 0.4}); err != nil || acc >= 1 {
		t.Fatalf("constant reference: %v, %v", acc, err)
	}
}

func TestActivations(t *testing.T) {
	if Sigmoid(0) != 0.5 {
		t.Error("Sigmoid(0) != 0.5")
	}
	if Sigmoid(10) < 0.99 || Sigmoid(-10) > 0.01 {
		t.Error("Sigmoid saturation")
	}
	if Identity(3.5) != 3.5 {
		t.Error("Identity")
	}
}
