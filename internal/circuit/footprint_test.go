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
// unknowns keeps 7.5 vectors of 2·M·N floats (16·M·N bytes each): the
// operator's half-length cell conductances, the preconditioner's
// subdiagonal and reciprocal pivots, and CG's two solution buffers,
// residual (which also carries the right-hand side in), search direction
// and one buffer shared by the preconditioned residual and A·p. The
// operator derives its diagonal. What is left is O(M + N) and the solve's
// bookkeeping, inside 32 KB. A stored diagonal or a separate right-hand
// side (8.5 vectors) fails the bound.
func TestSolveFootprint(t *testing.T) {
	for _, size := range []int{64, 128, 256} {
		c, vin := benchCrossbar(size)
		got := bytesPerOp(t, func() error {
			_, err := c.Solve(vin, SolveOptions{})
			return err
		})
		vec := int64(16 * size * size)
		if bound := 15*vec/2 + 32<<10; got > bound {
			t.Errorf("%dx%d cold solve allocates %d B, bound %d (%.2f vectors)", size, size, got, bound, float64(got)/float64(vec))
		}
		t.Logf("%dx%d: %d B/op, %.2f vectors", size, size, got, float64(got)/float64(vec))
	}
}

// TestSettleTimeFootprint bounds a Table II-shaped settling run at 64×64:
// the operator and preconditioner of the solve, one CGWork shared by the
// DC target and every step, whose residual buffer carries each right-hand
// side in, and N output targets — about 7.5 vectors, bounded at 8. A
// stored diagonal, a separate right-hand side, per-node C/dt, a separate
// discharged-start vector or a DC solve with its own CG vectors fail it.
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
	if bound := 8 * vec; got > bound {
		t.Errorf("settling run allocates %d B, bound %d (%.2f vectors)", got, bound, float64(got)/float64(vec))
	}
	t.Logf("%dx%d settle: %d B/op, %.2f vectors", size, size, got, float64(got)/float64(vec))
}

// TestWarmSolveFootprint bounds a solve stream through a state at 64×64.
// The first solve through a new state allocates the state: a cold solve's
// 7.5 vectors of 2·M·N floats plus the stored operating point, 8.5 in all
// and bounded like TestSolveFootprint's, so a stored diagonal or a
// separate right-hand side fails it. A warm re-solve then finds every
// vector in the state, and the result's NodeV is the state's stored point,
// not a copy: what is left is the result, its outputs and the
// diagnostics, under a sixteenth of one vector. A per-solve copy of the
// operating point or any other per-solve vector fails that bound.
func TestWarmSolveFootprint(t *testing.T) {
	const size = 64
	c, base := benchCrossbar(size)
	vec := int64(16 * size * size)
	first := bytesPerOp(t, func() error {
		_, err := c.Solve(base, SolveOptions{State: NewSolverState()})
		return err
	})
	if bound := 17*vec/2 + 32<<10; first > bound {
		t.Errorf("first solve through a state allocates %d B, bound %d (%.2f vectors)", first, bound, float64(first)/float64(vec))
	}
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
	if bound := vec / 16; got > bound {
		t.Errorf("warm re-solve allocates %d B, bound %d (%.3f vectors)", got, bound, float64(got)/float64(vec))
	}
	t.Logf("%dx%d: first solve through a state %d B/op, %.2f vectors; warm re-solve %d B/op, %.3f vectors",
		size, size, first, float64(first)/float64(vec), got, float64(got)/float64(vec))
}
