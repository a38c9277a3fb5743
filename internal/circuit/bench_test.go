package circuit

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/debug"
	"testing"

	"mnsim/internal/device"
	"mnsim/internal/telemetry"
)

// benchCrossbar builds the size×size non-linear benchmark crossbar and its
// drive vector from a fixed seed, so every solver benchmark times the same
// system.
func benchCrossbar(size int) (*Crossbar, []float64) {
	dev := device.RRAM()
	rng := rand.New(rand.NewSource(1))
	c := &Crossbar{
		M: size, N: size,
		R:      randomR(size, size, dev, rng),
		WireR:  2.5,
		RSense: 1e3,
		Dev:    dev,
	}
	vin := make([]float64, size)
	for i := range vin {
		vin[i] = 2 * dev.ReadVoltage * rng.Float64()
	}
	return c, vin
}

// pauseGC turns the collector off, with a 512 MiB memory limit as a
// backstop, and returns the function that turns it back on. After every GC
// cycle the runtime's unique-map cleanup (linked in through net/netip,
// which telemetry's net/http pulls in) allocates, so with the collector on
// a timed loop's allocs/op counts GC cycles as well as the code under test.
// The gated -benchtime=20x loops stay far below the limit. Stop the timer
// before the returned function runs.
func pauseGC() (restore func()) {
	pct := debug.SetGCPercent(-1)
	limit := debug.SetMemoryLimit(512 << 20)
	return func() {
		debug.SetMemoryLimit(limit)
		debug.SetGCPercent(pct)
	}
}

// BenchmarkSolve times one non-linear crossbar solve and reports the
// Newton and CG iteration counts alongside ns/op, so an iteration-count
// regression (a solver that still converges but works harder for it)
// shows up in the bench trajectory even when wall time hides it behind
// machine noise.
func BenchmarkSolve(b *testing.B) {
	for _, size := range []int{16, 32, 64, 128, 256} {
		b.Run(benchName(size), func(b *testing.B) {
			c, vin := benchCrossbar(size)
			var newton, cg, flops, refreshes int64
			defer pauseGC()()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := c.Solve(vin, SolveOptions{})
				if err != nil {
					b.Fatal(err)
				}
				newton += int64(res.NewtonIters)
				cg += int64(res.CGIters)
				flops += res.Diag.Cost.Total().Flops
				refreshes += int64(res.Diag.PrecondRefreshes)
			}
			b.StopTimer()
			b.ReportMetric(float64(newton)/float64(b.N), "newton-iters/op")
			b.ReportMetric(float64(cg)/float64(b.N), "cg-iters/op")
			b.ReportMetric(float64(flops)/float64(b.N), "flops/op")
			b.ReportMetric(float64(refreshes)/float64(b.N), "precond-refreshes/op")
		})
	}
}

// BenchmarkSolveWarm times the warm-start path: one SolverState threaded
// through a stream of solves whose inputs drift deterministically, the
// shape of the Table II solve stream. The interesting metric is
// cg-iters/op relative to the cold BenchmarkSolve.
func BenchmarkSolveWarm(b *testing.B) {
	c, base := benchCrossbar(64)
	vin := append([]float64(nil), base...)
	st := NewSolverState()
	// One warm-up solve outside the timer so the state's scratch buffers
	// (CG work vectors, preconditioner factors, warm vector) are already
	// grown: the timed region then measures the steady state.
	if _, err := c.Solve(vin, SolveOptions{State: st}); err != nil {
		b.Fatal(err)
	}
	var cg, refreshes int64
	defer pauseGC()()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Deterministic per-iteration drift (no mid-loop rand), never
		// scale 1: every timed solve, the first included, sees an input
		// other than the warm-up's, so the warm start does real work.
		scale := 1 + 1e-3*float64(i%7+1)
		for m := range vin {
			vin[m] = base[m] * scale
		}
		res, err := c.Solve(vin, SolveOptions{State: st})
		if err != nil {
			b.Fatal(err)
		}
		cg += int64(res.CGIters)
		refreshes += int64(res.Diag.PrecondRefreshes)
	}
	b.StopTimer()
	b.ReportMetric(float64(cg)/float64(b.N), "cg-iters/op")
	b.ReportMetric(float64(refreshes)/float64(b.N), "precond-refreshes/op")
}

// BenchmarkSolveOverhead times what the observability layers cost a
// 64×64 solve: "plain" is the bare solve, "journaled" records to the
// ring-only journal, so it times the per-phase sub-spans and encodes the
// solve_end and span events, and "sampled" runs
// the runtime/metrics sampler concurrently at its default 1s cadence. The
// sampler's acceptance budget is 5% on ns/op against plain; journaled
// measures what recording one solve costs and has no budget. Bit-identity
// is asserted separately in TestTracingNumericallyNeutral and
// TestResourceSamplingNumericallyNeutral.
func BenchmarkSolveOverhead(b *testing.B) {
	for _, bc := range []struct {
		name  string
		setup func(b *testing.B)
	}{
		{"plain", func(*testing.B) {}},
		{"journaled", func(b *testing.B) {
			telemetry.SetTraceSeed(1)
			j := telemetry.DefaultJournal()
			j.EnableRing()
			b.Cleanup(func() {
				j.Close()
				j.Reset()
				telemetry.DefaultTracer().ResetTraceEvents()
			})
		}},
		{"sampled", func(b *testing.B) {
			// The benchmark body re-runs during iteration-count
			// calibration; the sampler from the previous invocation is
			// still up then, so an already-running error is expected and
			// fine — the registered Stop is idempotent either way.
			s := telemetry.DefaultResourceSampler()
			if err := s.Start(context.Background(), telemetry.ResourceConfig{}); err == nil {
				b.Cleanup(s.Stop)
			}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			bc.setup(b)
			c, vin := benchCrossbar(64)
			var cg int64
			defer pauseGC()()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := c.Solve(vin, SolveOptions{})
				if err != nil {
					b.Fatal(err)
				}
				cg += int64(res.CGIters)
			}
			b.StopTimer()
			b.ReportMetric(float64(cg)/float64(b.N), "cg-iters/op")
		})
	}
}

func benchName(size int) string {
	return fmt.Sprintf("%dx%d", size, size)
}

// restampSystem assembles the size×size benchmark crossbar and solves it
// once, returning the assembly and the converged operating point a Newton
// restamp linearises around.
func restampSystem(tb testing.TB, size int) (*Crossbar, *assembly, []float64) {
	c, vin := benchCrossbar(size)
	res, err := c.Solve(vin, SolveOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	return c, c.assemble(vin, nil), res.NodeV
}

// BenchmarkRestamp times one Newton restamp: every cell's device current
// and conductance at the operating point, its conductance and diagonal
// written into the operator, and the right-hand side rebuilt.
func BenchmarkRestamp(b *testing.B) {
	for _, size := range []int{64, 128} {
		b.Run(benchName(size), func(b *testing.B) {
			c, a, v := restampSystem(b, size)
			c.restamp(a, v, nil) // sizes the right-hand-side buffer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.restamp(a, v, nil)
			}
		})
	}
}

// TestRestampAllocatesNothing: after its first call sizes the right-hand
// side, a restamp through an assembly allocates nothing.
func TestRestampAllocatesNothing(t *testing.T) {
	c, a, v := restampSystem(t, 16)
	c.restamp(a, v, nil)
	if n := testing.AllocsPerRun(10, func() { c.restamp(a, v, nil) }); n != 0 {
		t.Fatalf("restamp allocates %v per run", n)
	}
}
