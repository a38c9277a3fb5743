package mnsim

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sort"
	"testing"

	"mnsim/internal/crossbar"
	"mnsim/internal/custom"
	"mnsim/internal/dse"
	"mnsim/internal/periph"
	"mnsim/internal/tech"
	"mnsim/internal/validate"
)

// Golden pins of the paper's outputs: Fig. 5, Tables II–VII (Table III's
// circuit side only) and Figs 6–9, each reduced to an FNV-1a digest of the
// exact bits of every number in it and compared with testdata/golden.json. Any change to any digit of any
// output fails the test. The pins are linux/amd64 bits: on other
// architectures the Go compiler may fuse a multiply and an add into one
// instruction, which rounds once instead of twice, so the test skips there.
// Regenerate the pins with `go test -run TestGoldenOutputs -update .` after
// a change that is meant to move the paper's numbers.

var update = flag.Bool("update", false, "rewrite testdata/golden.json from the program's current output")

const goldenPath = "testdata/golden.json"

type goldenFile struct {
	Platform string            `json:"platform"`
	Digests  map[string]string `json:"digests"`
}

// digest hashes numbers by their exact bits: FNV-1a over the little-endian
// bytes of each float64's bit pattern and of each integer.
type digest struct{ h hash.Hash64 }

func (d *digest) word(u uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], u)
	_, _ = d.h.Write(b[:]) // hash writes never fail
}

func (d *digest) floats(xs ...float64) {
	for _, x := range xs {
		d.word(math.Float64bits(x))
	}
}

func (d *digest) ints(xs ...int) {
	for _, x := range xs {
		d.word(uint64(int64(x)))
	}
}

// candidates hashes every field of each candidate but EvalTime, which is
// wall time.
func (d *digest) candidates(cs []Candidate) {
	for _, c := range cs {
		feasible := 0
		if c.Feasible {
			feasible = 1
		}
		d.ints(c.CrossbarSize, c.Parallelism, c.WireNode, feasible)
		r := c.Report
		d.floats(r.AreaMM2, r.EnergyPerSample, r.SampleLatency, r.PipelineCycle, r.Power, r.ErrorWorst, r.ErrorAvg)
	}
}

// optima returns the best candidate for each objective, in Objectives order.
func optima(t *testing.T, cands []Candidate) []Candidate {
	t.Helper()
	var out []Candidate
	for _, obj := range Objectives() {
		c := Best(cands, obj)
		if c == nil {
			t.Fatalf("no feasible design for %v", obj)
		}
		out = append(out, *c)
	}
	return out
}

// goldenOutputs computes every pinned output with the given worker count,
// from the setups of the matching benchmarks in bench_test.go, and returns
// their digests by name. Tables III and VII and Fig. 6 take no worker count.
func goldenOutputs(t *testing.T, workers int) map[string]string {
	t.Helper()
	out := map[string]string{}
	pin := func(name string, fill func(d *digest)) {
		d := &digest{h: fnv.New64a()}
		fill(d)
		out[name] = fmt.Sprintf("%016x", d.h.Sum64())
	}
	explore := func(base Design, layers []LayerDims, space Space, limit float64) []Candidate {
		cands, err := Explore(base, layers, space, ExploreOptions{ErrorLimit: limit, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return cands
	}

	pts, err := validate.Fig5Context(context.Background(), []int{8, 16, 32, 64}, []int{90, 45, 28, 18}, workers)
	if err != nil {
		t.Fatal(err)
	}
	pin("fig5", func(d *digest) {
		for _, p := range pts {
			d.ints(p.Size, p.WireNode)
			d.floats(p.Model, p.Circuit)
		}
	})

	// Table II at paper scale: 20 weight samples × 100 inputs on 128×128
	// layers, the default options.
	t2, err := validate.TableIIContext(context.Background(), validate.TableIIOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	pin("table2", func(d *digest) {
		for _, r := range t2 {
			d.floats(r.Model, r.Circuit)
		}
	})

	// Table III's circuit side at mnsim-validate's default sizes and seed:
	// each row's size and CG iteration count. The timings are wall time.
	t3, err := validate.TableIIIContext(context.Background(), []int{16, 32, 64, 128, 256}, 1)
	if err != nil {
		t.Fatal(err)
	}
	pin("table3", func(d *digest) {
		for _, r := range t3 {
			d.ints(r.Size, r.CircuitIters)
		}
	})

	large := explore(largeBankDesign(), largeBankLayer, DefaultSpace(), 0.25)
	largeOpt := optima(t, large)
	pin("table4", func(d *digest) {
		d.candidates(large)
		d.candidates(largeOpt)
	})
	pin("table5", func(d *digest) {
		d.candidates(explore(largeBankDesign(), largeBankLayer, Space{
			CrossbarSizes: []int{8, 16, 32, 64, 128, 256},
			Parallelisms:  []int{1},
			WireNodes:     []int{18, 22, 28, 36, 45},
		}, 1))
	})

	vggLayers, err := VGG16().Dims()
	if err != nil {
		t.Fatal(err)
	}
	vggBase := largeBankDesign()
	vggBase.WeightBits = 8
	vggBase.Neuron = periph.NeuronReLU
	space := DefaultSpace()
	space.WireNodes = append(space.WireNodes, 90)
	vgg := explore(vggBase, vggLayers, space, 0.5)
	pin("table6", func(d *digest) {
		d.candidates(optima(t, vgg))
		d.candidates(dse.Pareto(vgg))
	})

	prime, err := custom.PRIME()
	if err != nil {
		t.Fatal(err)
	}
	isaac, err := custom.ISAAC()
	if err != nil {
		t.Fatal(err)
	}
	pin("table7", func(d *digest) {
		for _, r := range []custom.Result{prime, isaac} {
			d.ints(r.CMOSTech)
			d.floats(r.AreaMM2, r.EnergyPerTask, r.Latency, r.Accuracy)
		}
	})

	dec, err := periph.Decoder(tech.MustNode(130), 32, true)
	if err != nil {
		t.Fatal(err)
	}
	pin("fig6", func(d *digest) {
		d.floats(crossbar.LayoutCalibration(dec.Area))
	})
	pin("fig7", func(d *digest) {
		d.candidates(explore(largeBankDesign(), largeBankLayer, Space{
			CrossbarSizes: []int{32, 512},
			Parallelisms:  []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512},
			WireNodes:     []int{45},
		}, 1))
	})
	fig8 := explore(largeBankDesign(), largeBankLayer, Space{
		CrossbarSizes: []int{32, 64, 128, 256},
		Parallelisms:  []int{1, 2, 4, 8, 16, 32, 64, 128, 256},
		WireNodes:     []int{45},
	}, 1)
	pin("fig8", func(d *digest) {
		d.candidates(fig8)
		d.candidates(dse.Pareto(fig8))
	})
	vggOpt := optima(t, explore(vggBase, vggLayers, DefaultSpace(), 0.5))
	pin("fig9", func(d *digest) {
		for _, opt := range [][]Candidate{largeOpt, vggOpt} {
			for _, row := range dse.RadarFactors(opt) {
				d.floats(row[:]...)
			}
		}
	})
	return out
}

// TestGoldenOutputs checks every pinned output at workers 1 and 2 against
// the committed digests: the outputs are the same bits at any worker count.
func TestGoldenOutputs(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("the pins are linux/amd64 float bits; %s/%s may fuse multiply-adds", runtime.GOOS, runtime.GOARCH)
	}
	var want goldenFile
	if !*update {
		b, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatalf("%s: %v", goldenPath, err)
		}
	}
	for _, workers := range []int{1, 2} {
		got := goldenOutputs(t, workers)
		if *update && want.Digests == nil {
			want = goldenFile{Platform: "linux/amd64", Digests: got}
			b, err := json.MarshalIndent(want, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if got[name] != want.Digests[name] {
				t.Errorf("workers=%d: %s digest %s, want %s", workers, name, got[name], want.Digests[name])
			}
		}
		if len(want.Digests) != len(got) {
			t.Errorf("%s pins %d outputs, the test computes %d", goldenPath, len(want.Digests), len(got))
		}
	}
}
