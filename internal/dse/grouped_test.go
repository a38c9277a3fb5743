package dse

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"unsafe"

	"mnsim/internal/arch"
	"mnsim/internal/nn"
	"mnsim/internal/periph"
	"mnsim/internal/tech"
)

// perCandidate is the sweep as one NewAccelerator and EvaluateContext per
// grid point, in Explore's traversal order, skipping the points that do not
// build and the one named skip.
func perCandidate(t *testing.T, base arch.Design, layers []arch.LayerDims, space Space, limit float64, skip [3]int) []Candidate {
	t.Helper()
	var out []Candidate
	for _, node := range space.WireNodes {
		for _, size := range space.CrossbarSizes {
			for _, p := range space.Parallelisms {
				if p > size || [3]int{size, p, node} == skip {
					continue
				}
				d := base
				d.CrossbarSize, d.Parallelism, d.Wire = size, p, tech.MustInterconnect(node)
				a, err := arch.NewAccelerator(&d, layers, [2]int{128, 128})
				if err != nil {
					continue
				}
				r, err := a.EvaluateContext(context.Background())
				if err != nil {
					t.Fatalf("%d/%d/%d: %v", size, p, node, err)
				}
				out = append(out, Candidate{CrossbarSize: size, Parallelism: p, WireNode: node,
					Report: r, Feasible: math.Abs(r.ErrorWorst) <= limit})
			}
		}
	}
	return out
}

// sameCandidates reports the first candidate that differs, comparing every
// Report field by its bits.
func sameCandidates(got, want []Candidate) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d candidates, want %d", len(got), len(want))
	}
	b := math.Float64bits
	for i := range got {
		g, w := got[i], want[i]
		gr, wr := g.Report, w.Report
		if g.CrossbarSize != w.CrossbarSize || g.Parallelism != w.Parallelism || g.WireNode != w.WireNode ||
			g.Feasible != w.Feasible ||
			b(gr.AreaMM2) != b(wr.AreaMM2) || b(gr.EnergyPerSample) != b(wr.EnergyPerSample) ||
			b(gr.SampleLatency) != b(wr.SampleLatency) || b(gr.PipelineCycle) != b(wr.PipelineCycle) ||
			b(gr.Power) != b(wr.Power) || b(gr.ErrorWorst) != b(wr.ErrorWorst) || b(gr.ErrorAvg) != b(wr.ErrorAvg) {
			return fmt.Errorf("candidate %d: %+v, want %+v", i, g, w)
		}
	}
	return nil
}

type groupedCase struct {
	name   string
	base   arch.Design
	layers []arch.LayerDims
	space  Space
	limit  float64
}

func groupedCases(t *testing.T) []groupedCase {
	vgg, err := nn.VGG16().Dims()
	if err != nil {
		t.Fatal(err)
	}
	vggBase := baseDesign()
	vggBase.WeightBits = 8
	vggBase.Neuron = periph.NeuronReLU
	// 16-bit weights take three cells, so a 2×2 crossbar holds none; the
	// first parallelism of every run is valid, the second never is.
	wide := baseDesign()
	wide.WeightBits = 16
	return []groupedCase{
		{"vgg16", vggBase, vgg, Space{
			CrossbarSizes: []int{64, 24, 512, 128},
			Parallelisms:  []int{16, 1, 0, 256, 4},
			WireNodes:     []int{90, 18},
		}, 0.5},
		{"largebank", wide, largeLayer, Space{
			CrossbarSizes: []int{2, 16, 64, 200},
			Parallelisms:  []int{4, -1, 0, 1, 16, 64, 200},
			WireNodes:     []int{18, 45},
		}, 0.25},
		// One crossbar size over two wire nodes: consecutive runs differ
		// only in their node.
		{"largebank/one-size", baseDesign(), largeLayer, Space{
			CrossbarSizes: []int{128},
			Parallelisms:  []int{1, 0, 32},
			WireNodes:     []int{18, 90},
		}, 0.25},
	}
}

// TestExploreMatchesPerCandidate: the sweep that builds one plan per
// (wire node, crossbar size) run yields, bit for bit, the candidates of
// building and evaluating every grid point on its own. A negative
// parallelism is unbuildable alone; a crossbar too small for one weight
// makes its whole run unbuildable.
func TestExploreMatchesPerCandidate(t *testing.T) {
	for _, c := range groupedCases(t) {
		want := perCandidate(t, c.base, c.layers, c.space, c.limit, [3]int{})
		for _, opt := range []Options{{Workers: 1}, {Workers: 4}, {Workers: 4, EvalSpin: 500}} {
			opt.ErrorLimit = c.limit
			got, err := Explore(context.Background(), c.base, c.layers, c.space, opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameCandidates(got, want); err != nil {
				t.Fatalf("%s workers=%d spin=%d: %v", c.name, opt.Workers, opt.EvalSpin, err)
			}
		}
	}
}

// TestExploreFailEvalInRun: an injected failure on the candidate that
// builds its run's plan, or on a later one, drops that candidate alone.
func TestExploreFailEvalInRun(t *testing.T) {
	c := groupedCases(t)[1]
	for _, fail := range [][3]int{{64, 4, 45}, {64, 16, 45}, {200, 200, 18}} {
		want := perCandidate(t, c.base, c.layers, c.space, c.limit, fail)
		for _, workers := range []int{1, 4} {
			failed := telEvalFailed.Value()
			got, err := Explore(context.Background(), c.base, c.layers, c.space, Options{
				ErrorLimit: c.limit, Workers: workers,
				FailEval: fmt.Sprintf("%d:%d:%d", fail[0], fail[1], fail[2]),
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := sameCandidates(got, want); err != nil {
				t.Fatalf("FailEval %v workers=%d: %v", fail, workers, err)
			}
			if n := telEvalFailed.Value() - failed; n != 1 {
				t.Fatalf("FailEval %v workers=%d: %d failures counted, want 1", fail, workers, n)
			}
		}
	}
}

// TestExploreCancelWithinRun: a cancellation while one candidate is
// evaluated stops the sweep before the next candidate of the same run.
func TestExploreCancelWithinRun(t *testing.T) {
	c := groupedCases(t)[0]
	orig := evalCandidate
	defer func() { evalCandidate = orig }()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelAt = 3 // the third candidate of the first run
	calls := 0
	evalCandidate = func(ctx context.Context, pl *arch.Plan, p int, a *arch.Accelerator) (arch.Report, error) {
		calls++
		r, err := orig(ctx, pl, p, a)
		if calls == cancelAt {
			cancel()
		}
		return r, err
	}
	_, err := Explore(ctx, c.base, c.layers, c.space, Options{ErrorLimit: c.limit, Workers: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if calls != cancelAt {
		t.Fatalf("%d candidates evaluated, want the sweep to stop after candidate %d", calls, cancelAt)
	}
}

// TestExploreAllocationBound: a paper sweep's allocations do not grow with
// its candidates. With the journal off a candidate allocates nothing: its
// span is counted in its worker's tally, without a Span, a context or an ID
// string. What is left is a per-call constant: the sweep's slices, its
// worker storage and its growth, one span path per worker, the pool's and
// the telemetry's. A plan or an accelerator per run, or anything per
// candidate, breaks the count bound. In bytes, the sweep allocates its
// results slice, one Candidate per grid point, and a fixed allowance for
// the rest, which no per-point slice fits in.
func TestExploreAllocationBound(t *testing.T) {
	base, layers, sp := paperSweep(t)
	const perCall = 256
	const allowance = 96 << 10
	for _, workers := range []int{1, 2} {
		var n int
		explore := func() {
			cands, err := Explore(context.Background(), base, layers, sp, Options{ErrorLimit: 0.5, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			n = len(cands)
		}
		allocs := testing.AllocsPerRun(1, explore)
		if limit := float64(perCall); allocs > limit {
			t.Errorf("workers=%d: %v allocations for %d candidates, want at most %v", workers, allocs, n, limit)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		explore()
		runtime.ReadMemStats(&after)
		bytes := after.TotalAlloc - before.TotalAlloc
		// The results slice holds every grid point of the space, n of them
		// plus the unbuildable ones.
		points := 0
		for _, size := range sp.CrossbarSizes {
			for _, p := range sp.Parallelisms {
				if p <= size {
					points++
				}
			}
		}
		points *= len(sp.WireNodes)
		if limit := uint64(points)*uint64(unsafe.Sizeof(Candidate{})) + allowance; bytes > limit {
			t.Errorf("workers=%d: %d bytes for %d grid points, want at most %d", workers, bytes, points, limit)
		}
		t.Logf("workers=%d: %v allocations, %d bytes for %d candidates of %d grid points", workers, allocs, bytes, n, points)
	}
}

// TestCandIDMatchesSprintf: the span key equals its fmt form for every
// point of the paper-scale space and for negative values.
func TestCandIDMatchesSprintf(t *testing.T) {
	check := func(gp gridPoint) {
		if got, want := candID(gp), fmt.Sprintf("cand-%dx%d@%d", gp.size, gp.p, gp.node); got != want {
			t.Fatalf("candID = %q, want %q", got, want)
		}
	}
	for _, node := range []int{18, 22, 28, 36, 45, 90} {
		for size := 8; size <= 1024; size += 8 {
			for p := 1; p <= 256; p *= 2 {
				check(gridPoint{size: size, p: p, node: node})
			}
		}
	}
	for _, v := range []int{-1, -64, math.MinInt64, math.MaxInt64} {
		check(gridPoint{size: v, p: v, node: v})
		check(gridPoint{size: 64, p: v, node: 45})
	}
}
