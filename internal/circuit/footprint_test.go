package circuit

import (
	"flag"
	"fmt"
	"math/rand"
	"testing"

	"mnsim/internal/crossbar"
	"mnsim/internal/device"
	"mnsim/internal/tech"
)

// bytesPerOp returns the bytes one call of f allocates, read with
// testing.Benchmark at a fixed two iterations (after its one-call
// warm-up), so the test stays quick at any -benchtime, the race detector's
// included.
func bytesPerOp(t *testing.T, f func() error) int64 {
	t.Helper()
	bt := flag.Lookup("test.benchtime")
	old := bt.Value.String()
	if err := bt.Value.Set("2x"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := bt.Value.Set(old); err != nil {
			t.Error(err)
		}
	}()
	var ferr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N && ferr == nil; i++ {
			ferr = f()
		}
	})
	if ferr != nil {
		t.Fatal(ferr)
	}
	return r.AllocedBytesPerOp()
}

// TestSolveFootprint bounds what a cold solve holds. A solve over 2·M·N
// unknowns keeps 9.5 vectors of 2·M·N floats (16·M·N bytes each): the
// operator's diagonal and half-length cell conductances, the right-hand
// side, the preconditioner's subdiagonal and reciprocal pivots, and CG's
// two solution buffers, residual, search direction and one buffer shared
// by the preconditioned residual and A·p. What is left is O(M + N) and the
// solve's bookkeeping, inside 16 KB. A stored copy or a constant spread
// out to full length (13.5 vectors once) fails the bound.
func TestSolveFootprint(t *testing.T) {
	for _, size := range []int{64, 128} {
		c, vin := benchCrossbar(size)
		got := bytesPerOp(t, func() error {
			_, err := c.Solve(vin, SolveOptions{})
			return err
		})
		vec := int64(16 * size * size)
		if bound := 19*vec/2 + 16<<10; got > bound {
			t.Errorf("%dx%d cold solve allocates %d B, bound %d (%.2f vectors)", size, size, got, bound, float64(got)/float64(vec))
		}
		t.Logf("%dx%d: %d B/op, %.2f vectors", size, size, got, float64(got)/float64(vec))
	}
}

// TestSettleTimeFootprint bounds a Table II-shaped settling run at 64×64:
// the operator, right-hand side and preconditioner of the solve, one CGWork
// shared by the DC target and every step, and N output targets — about
// 9.5 vectors, bounded at 12. Per-node C/dt, a separate discharged-start
// vector or a DC solve with its own CG vectors (20.5 vectors once) fail it.
func TestSettleTimeFootprint(t *testing.T) {
	const size = 64
	dev := device.RRAM()
	wire := tech.MustInterconnect(45)
	p := crossbar.New(size, size, dev, wire)
	c := &Crossbar{M: size, N: size, R: randomR(size, size, dev, rand.New(rand.NewSource(1))), WireR: wire.SegmentR, RSense: p.RSense, Dev: dev}
	vin := make([]float64, size)
	for i := range vin {
		vin[i] = p.VDrive
	}
	opt := TransientOptions{NodeCap: wire.SegmentC, CellCap: dev.CellCap}
	got := bytesPerOp(t, func() error {
		if _, err := c.SettleTime(vin, opt); err != nil {
			return fmt.Errorf("settle: %w", err)
		}
		return nil
	})
	vec := int64(16 * size * size)
	if bound := 12 * vec; got > bound {
		t.Errorf("settling run allocates %d B, bound %d (%.2f vectors)", got, bound, float64(got)/float64(vec))
	}
	t.Logf("%dx%d settle: %d B/op, %.2f vectors", size, size, got, float64(got)/float64(vec))
}

// TestWarmSolveFootprint bounds a warm re-solve through a state at 64×64.
// Its vectors of 2·M·N floats all live in the state, and the result's
// NodeV is the state's stored point, not a copy: what is left is the
// result, its outputs and the diagnostics, under a quarter of one vector.
// A per-solve copy of the operating point (one vector) fails the bound.
func TestWarmSolveFootprint(t *testing.T) {
	const size = 64
	c, base := benchCrossbar(size)
	vin := append([]float64(nil), base...)
	st := NewSolverState()
	if _, err := c.Solve(vin, SolveOptions{State: st}); err != nil {
		t.Fatal(err)
	}
	i := 0
	got := bytesPerOp(t, func() error {
		// BenchmarkSolveWarm's drift: every solve does warm work.
		i++
		for m := range vin {
			vin[m] = base[m] * (1 + 1e-3*float64(i%7+1))
		}
		res, err := c.Solve(vin, SolveOptions{State: st})
		if err == nil && !res.Diag.WarmStart {
			err = fmt.Errorf("solve %d did not warm-start", i)
		}
		return err
	})
	vec := int64(16 * size * size)
	if bound := vec / 4; got > bound {
		t.Errorf("warm re-solve allocates %d B, bound %d (%.2f vectors)", got, bound, float64(got)/float64(vec))
	}
	t.Logf("%dx%d warm re-solve: %d B/op, %.3f vectors", size, size, got, float64(got)/float64(vec))
}
