package sparse

import (
	"math"
	"math/rand"
	"testing"
)

func TestBiCGStabUnsymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 60
	a := randomSquareCSC(rng, n, 0.05).ToCSR()
	s, err := NewBiCGStab(a, IterOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	want := mustVec(rng, n)
	b := make([]float64, n)
	a.MatVec(b, want)
	got := make([]float64, n)
	if err := s.Solve(got, b); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-6 {
			t.Fatalf("BiCGStab error at %d: %g vs %g", i, got[i], want[i])
		}
	}
}

func TestBiCGStabComplex(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 40
	c := NewCOO[complex128](n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, complex(5+rng.Float64(), 2))
	}
	for k := 0; k < 2*n; k++ {
		c.Add(rng.Intn(n), rng.Intn(n), complex(rng.NormFloat64(), rng.NormFloat64())*0.3)
	}
	a := c.ToCSR()
	s, err := NewBiCGStab(a, IterOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, n)
	for i := range want {
		want[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	b := make([]complex128, n)
	a.MatVec(b, want)
	got := make([]complex128, n)
	if err := s.Solve(got, b); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if Abs(got[i]-want[i]) > 1e-6 {
			t.Fatalf("complex BiCGStab error at %d", i)
		}
	}
}

func TestBiCGStabZeroDiagonalFallback(t *testing.T) {
	// MNA inductor rows have structurally zero diagonals; the Jacobi
	// preconditioner must degrade gracefully rather than fail.
	c := NewCOO[float64](3, 3)
	c.Add(0, 0, 2)
	c.Add(0, 2, 1)
	c.Add(1, 1, 3)
	c.Add(2, 0, -1)
	// (2,2) left structurally zero.
	a := c.ToCSR()
	s, err := NewBiCGStab(a, IterOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	b := make([]float64, 3)
	a.MatVec(b, want)
	got := make([]float64, 3)
	if err := s.Solve(got, b); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-8 {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSolverInterfaceSatisfied(t *testing.T) {
	var _ Solver[float64] = (*LU[float64])(nil)
	var _ Solver[complex128] = (*LU[complex128])(nil)
	var _ Solver[float64] = (*BiCGStab[float64])(nil)
	var _ Solver[complex128] = (*BiCGStab[complex128])(nil)
}

func TestVecHelpers(t *testing.T) {
	x := []float64{3, 4}
	if Nrm2(x) != 5 {
		t.Errorf("Nrm2 = %g, want 5", Nrm2(x))
	}
	if InfNorm(x) != 4 {
		t.Errorf("InfNorm = %g, want 4", InfNorm(x))
	}
	y := []float64{1, 1}
	Axpy(y, 2, x)
	if y[0] != 7 || y[1] != 9 {
		t.Errorf("Axpy = %v, want [7 9]", y)
	}
	if Dot(x, x) != 25 {
		t.Errorf("Dot = %g, want 25", Dot(x, x))
	}
	z := []complex128{1 + 2i}
	if DotConj(z, z) != 5 {
		t.Errorf("DotConj = %v, want 5", DotConj(z, z))
	}
	ScaleVec(x, 2)
	if x[0] != 6 || x[1] != 8 {
		t.Errorf("ScaleVec = %v", x)
	}
	ZeroVec(x)
	if x[0] != 0 || x[1] != 0 {
		t.Errorf("ZeroVec = %v", x)
	}
}

func TestScalarHelpers(t *testing.T) {
	if Abs(-2.5) != 2.5 {
		t.Error("Abs float")
	}
	if Abs(3+4i) != 5 {
		t.Error("Abs complex")
	}
	if Conj(2.0) != 2.0 {
		t.Error("Conj float identity")
	}
	if Conj(1+2i) != 1-2i {
		t.Error("Conj complex")
	}
	if FromFloat[complex128](2) != 2+0i {
		t.Error("FromFloat complex")
	}
	if !IsZero(0.0) || IsZero(1.0) {
		t.Error("IsZero")
	}
}
