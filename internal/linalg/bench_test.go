package linalg

import (
	"math/rand"
	"testing"
)

// crossbarSystem stamps the MNA conductance operator of an m×n crossbar
// with Table II's 45 nm RRAM parameters (0.5 Ω wire segments, 1.5 kΩ sense
// resistors, cells at one of 128 conductance levels in [1e-7, 1e-5] S) and
// a right-hand side from random row drives. With step set the operator is
// the transient's backward-Euler stepping matrix G + C/dt instead, at the
// transient's default step.
func crossbarSystem(m, n int, seed int64, step bool) (*CrossbarOp, []float64) {
	const gw, gs = 1 / 0.5, 1 / 1500.0
	rng := rand.New(rand.NewSource(seed))
	a := NewCrossbarOp(m, n)
	a.StampWires(gw, gs)
	rhs := make([]float64, a.Len())
	for i := 0; i < m; i++ {
		rhs[i*n] = gw * 0.3 * rng.Float64()
	}
	for k := range a.G {
		a.SetCell(k/a.N, k%a.N, 1e-7+(1e-5-1e-7)*float64(rng.Intn(128))/127)
	}
	if step {
		a.SetDiagShift(stepShift(m))
	}
	return a, rhs
}

// stepShift is C/dt on the row nodes and on the column nodes of
// crossbarSystem's m-row stepping matrix.
func stepShift(m int) (row, col float64) {
	const nodeCap, cellCap = 1.1e-16, 2e-15
	dt := 1500 * float64(m) * (nodeCap + cellCap) / 50
	return nodeCap / dt, (nodeCap + cellCap) / dt
}

// benchSystems are the two matrices a Table II op spends its solver time
// on: the 64×64 DC conductance matrix of the Newton–CG solves and the
// backward-Euler stepping matrix of the latency transient.
var benchSystems = []struct {
	name string
	step bool
}{{"dc64", false}, {"step64", true}}

var sinkF float64

func BenchmarkMulVec(b *testing.B) {
	for _, sys := range benchSystems {
		b.Run(sys.name, func(b *testing.B) {
			a, rhs := crossbarSystem(64, 64, 1, sys.step)
			y := make([]float64, a.Len())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.MulVec(rhs, y)
			}
			sinkF = y[0]
		})
	}
}

func BenchmarkBlockJacobiApply(b *testing.B) {
	for _, sys := range benchSystems {
		b.Run(sys.name, func(b *testing.B) {
			a, rhs := crossbarSystem(64, 64, 1, sys.step)
			p, err := NewBlockJacobi(a, nil)
			if err != nil {
				b.Fatal(err)
			}
			z := make([]float64, a.Len())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Apply(rhs, z, nil)
			}
			sinkF = z[0]
		})
	}
}

// BenchmarkBlockJacobiRefresh reads the chain entries from the operator
// and refactors every wire chain: the preconditioner setup each solve and
// each transient pays.
func BenchmarkBlockJacobiRefresh(b *testing.B) {
	for _, sys := range benchSystems {
		b.Run(sys.name, func(b *testing.B) {
			a, _ := crossbarSystem(64, 64, 1, sys.step)
			p, err := NewBlockJacobi(a, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.Refresh(a, nil); err != nil {
					b.Fatal(err)
				}
			}
			sinkF = p.rdiag[0]
		})
	}
}

// BenchmarkSolveCG is one cold (zero start) preconditioned solve per op,
// with CGWork scratch sized before the timer starts, at the tolerances Table II uses: 1e-10 for
// the DC target, 1e-9 per transient step.
func BenchmarkSolveCG(b *testing.B) {
	for _, sys := range benchSystems {
		b.Run(sys.name, func(b *testing.B) {
			a, rhs := crossbarSystem(64, 64, 1, sys.step)
			p, err := NewBlockJacobi(a, nil)
			if err != nil {
				b.Fatal(err)
			}
			opt := CGOptions{Tol: 1e-10, Precond: p, Work: &CGWork{}}
			if sys.step {
				opt.Tol = 1e-9
			}
			for range 2 { // sizes the scratch, both solution buffers included
				if _, _, err := SolveCG(a, rhs, nil, opt); err != nil {
					b.Fatal(err)
				}
			}
			iters := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x, it, err := SolveCG(a, rhs, nil, opt)
				if err != nil {
					b.Fatal(err)
				}
				iters += it
				sinkF = x[0]
			}
			b.ReportMetric(float64(iters)/float64(b.N), "cg-iters/op")
		})
	}
}

// TestKernelsAllocateNothing: the operator's products, the
// preconditioner refresh and apply, and a SolveCG with CGWork scratch run
// allocation-free, warm start included.
func TestKernelsAllocateNothing(t *testing.T) {
	for _, sys := range benchSystems {
		a, rhs := crossbarSystem(16, 24, 2, sys.step)
		p, err := NewBlockJacobi(a, nil)
		if err != nil {
			t.Fatal(err)
		}
		z, ax := make([]float64, a.Len()), make([]float64, a.N)
		kernels := []struct {
			name string
			run  func()
		}{
			{"MulVec", func() { a.MulVec(rhs, z) }},
			{"residual", func() { a.residual(rhs, rhs, z, ax) }},
			{"mulVecDot", func() { a.mulVecDot(rhs, z) }},
			{"Refresh", func() {
				if err := p.Refresh(a, nil); err != nil {
					t.Fatal(err)
				}
			}},
			{"Apply", func() { p.Apply(rhs, z, nil) }},
		}
		for _, k := range kernels {
			if n := testing.AllocsPerRun(10, k.run); n != 0 {
				t.Errorf("%s: %s allocates %v per run", sys.name, k.name, n)
			}
		}
		var ops OpCount
		opt := CGOptions{Tol: 1e-10, Precond: p, Work: &CGWork{}, Ops: &ops}
		x0 := make([]float64, a.Len())
		x0[0] = 1
		if _, _, err := SolveCG(a, rhs, x0, opt); err != nil { // sizes the scratch
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, _, err := SolveCG(a, rhs, x0, opt); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: SolveCG with CGWork allocates %v per run", sys.name, allocs)
		}
	}
}
