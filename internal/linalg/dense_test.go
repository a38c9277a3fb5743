package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mnsim/internal/linalg/densetest"
)

func TestDenseBasics(t *testing.T) {
	m := densetest.NewDense(2, 3)
	m.Set(0, 0, 1)
	m.Add(0, 0, 2)
	m.Set(1, 2, -4)
	if m.At(0, 0) != 3 || m.At(1, 2) != -4 || m.At(1, 1) != 0 {
		t.Fatalf("unexpected contents: %+v", m)
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 3 {
		t.Fatal("Clone aliases the original")
	}
}

func TestNewDensePanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDense(0,1) should panic")
		}
	}()
	densetest.NewDense(0, 1)
}

func TestMulVec(t *testing.T) {
	m := densetest.NewDense(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 3)
	m.Set(1, 1, 4)
	y := m.MulVec([]float64{1, 1})
	if y[0] != 3 || y[1] != 7 {
		t.Fatalf("MulVec = %v", y)
	}
}

func TestLUSolveKnown(t *testing.T) {
	// 2x + y = 5 ; x + 3y = 10  =>  x = 1, y = 3
	a := densetest.NewDense(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	x, err := densetest.SolveDense(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("solution %v, want [1 3]", x)
	}
}

func TestLUSingular(t *testing.T) {
	a := densetest.NewDense(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := densetest.SolveDense(a, []float64{1, 2}); err != densetest.ErrSingular {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestLUNonSquare(t *testing.T) {
	if _, err := densetest.FactorLU(densetest.NewDense(2, 3)); err == nil {
		t.Fatal("non-square LU should fail")
	}
}

func TestLUNeedsPivoting(t *testing.T) {
	// Zero pivot in the (0,0) position requires row exchange.
	a := densetest.NewDense(2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	x, err := densetest.SolveDense(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Fatalf("solution %v, want [3 2]", x)
	}
}

func TestLUSolveWrongRHS(t *testing.T) {
	a := densetest.NewDense(2, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, 1)
	f, err := densetest.FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1}); err == nil {
		t.Fatal("short rhs should fail")
	}
}

// Property: for random diagonally dominant systems, A·Solve(A,b) ≈ b.
func TestLURandomResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(30)
		a := densetest.NewDense(n, n)
		for i := 0; i < n; i++ {
			rowSum := 0.0
			for j := 0; j < n; j++ {
				if i != j {
					v := rng.NormFloat64()
					a.Set(i, j, v)
					rowSum += math.Abs(v)
				}
			}
			a.Set(i, i, rowSum+1) // strict diagonal dominance → nonsingular
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := densetest.SolveDense(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		r := a.MulVec(x)
		for i := range r {
			r[i] -= b[i]
		}
		if Norm2(r) > 1e-9*(1+Norm2(b)) {
			t.Fatalf("trial %d: residual %v too large", trial, Norm2(r))
		}
	}
}

func TestVectorHelpers(t *testing.T) {
	if Norm2([]float64{3, 4}) != 5 {
		t.Error("Norm2")
	}
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Error("Dot")
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot length mismatch should panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

// Property: Norm2 is absolutely homogeneous: ‖αv‖ = |α|·‖v‖.
func TestNorm2Homogeneous(t *testing.T) {
	f := func(a, b, c, alpha float64) bool {
		for _, v := range []float64{a, b, c, alpha} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		v := []float64{a, b, c}
		scaled := []float64{alpha * a, alpha * b, alpha * c}
		want := math.Abs(alpha) * Norm2(v)
		got := Norm2(scaled)
		return math.Abs(got-want) <= 1e-9*(1+want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
