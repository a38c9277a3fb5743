package linalg

import (
	"math/rand"
	"testing"
)

// crossbarSystem assembles the MNA conductance matrix of an m×n crossbar
// with the circuit solver's node numbering and Table II's 45 nm RRAM
// parameters (0.5 Ω wire segments, 1.5 kΩ sense resistors, cells at one of
// 128 conductance levels in [1e-7, 1e-5] S), the chain families that
// precondition it and a right-hand side from random row drives. With step
// set the matrix is the transient's backward-Euler stepping matrix
// G + C/dt instead, at the transient's default step.
func crossbarSystem(m, n int, seed int64, step bool) (*CSR, []Family, []float64) {
	const gw, gs = 1 / 0.5, 1 / 1500.0
	rng := rand.New(rand.NewSource(seed))
	row := func(i, j int) int { return i*n + j }
	col := func(i, j int) int { return m*n + i*n + j }
	var trips []Coord
	link := func(i, j int, g float64) {
		trips = append(trips, Coord{i, i, g}, Coord{j, j, g}, Coord{i, j, -g}, Coord{j, i, -g})
	}
	rhs := make([]float64, 2*m*n)
	for i := 0; i < m; i++ {
		trips = append(trips, Coord{row(i, 0), row(i, 0), gw})
		rhs[row(i, 0)] = gw * 0.3 * rng.Float64()
		for j := 0; j+1 < n; j++ {
			link(row(i, j), row(i, j+1), gw)
		}
	}
	for j := 0; j < n; j++ {
		for i := 0; i+1 < m; i++ {
			link(col(i, j), col(i+1, j), gw)
		}
		trips = append(trips, Coord{col(m-1, j), col(m-1, j), gs})
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			link(row(i, j), col(i, j), 1e-7+(1e-5-1e-7)*float64(rng.Intn(128))/127)
		}
	}
	if step {
		const nodeCap, cellCap = 1.1e-16, 2e-15
		dt := 1500 * float64(m) * (nodeCap + cellCap) / 50
		for i := 0; i < m*n; i++ {
			trips = append(trips, Coord{i, i, nodeCap / dt}, Coord{m*n + i, m*n + i, (nodeCap + cellCap) / dt})
		}
	}
	a, err := NewCSR(2*m*n, trips)
	if err != nil {
		panic(err)
	}
	fams := make([]Family, 0, m+1)
	for i := 0; i < m; i++ {
		fams = append(fams, Family{Start: row(i, 0), Chains: 1, Len: n})
	}
	fams = append(fams, Family{Start: m * n, Chains: n, Len: m})
	return a, fams, rhs
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
			a, _, rhs := crossbarSystem(64, 64, 1, sys.step)
			y := make([]float64, a.N)
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
			a, fams, rhs := crossbarSystem(64, 64, 1, sys.step)
			p, err := NewBlockJacobi(a, fams, nil)
			if err != nil {
				b.Fatal(err)
			}
			z := make([]float64, a.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Apply(rhs, z, nil)
			}
			sinkF = z[0]
		})
	}
}

// BenchmarkSolveCG is one cold (zero start) preconditioned solve per op,
// with CGWork scratch sized before the timer starts, at the tolerances Table II uses: 1e-10 for
// the DC target, 1e-9 per transient step.
func BenchmarkSolveCG(b *testing.B) {
	for _, sys := range benchSystems {
		b.Run(sys.name, func(b *testing.B) {
			a, fams, rhs := crossbarSystem(64, 64, 1, sys.step)
			p, err := NewBlockJacobi(a, fams, nil)
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

// TestKernelsAllocateNothing: the preconditioner apply and a SolveCG with
// CGWork scratch run allocation-free, warm start included.
func TestKernelsAllocateNothing(t *testing.T) {
	for _, sys := range benchSystems {
		a, fams, rhs := crossbarSystem(16, 24, 2, sys.step)
		p, err := NewBlockJacobi(a, fams, nil)
		if err != nil {
			t.Fatal(err)
		}
		z := make([]float64, a.N)
		if n := testing.AllocsPerRun(10, func() { p.Apply(rhs, z, nil) }); n != 0 {
			t.Errorf("%s: Apply allocates %v per run", sys.name, n)
		}
		var ops OpCount
		opt := CGOptions{Tol: 1e-10, Precond: p, Work: &CGWork{}, Ops: &ops}
		x0 := make([]float64, a.N)
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
