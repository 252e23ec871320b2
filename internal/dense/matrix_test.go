package dense

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randMat(rng *rand.Rand, rows, cols int) *Mat[float64] {
	m := NewMat[float64](rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func matApproxEq(a, b *Mat[float64], tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func TestMatBasics(t *testing.T) {
	m := NewMat[float64](2, 3)
	m.Set(0, 1, 5)
	m.Set(1, 2, -2)
	if m.At(0, 1) != 5 || m.At(1, 2) != -2 || m.At(0, 0) != 0 {
		t.Fatal("At/Set broken")
	}
	if got := m.Col(1); got[0] != 5 || got[1] != 0 {
		t.Fatal("Col broken")
	}
	m.SetCol(0, []float64{7, 8})
	if m.At(0, 0) != 7 || m.At(1, 0) != 8 {
		t.Fatal("SetCol broken")
	}
	if m.NNZ() != 4 {
		t.Fatalf("NNZ = %d, want 4", m.NNZ())
	}
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(1, 0) != 5 {
		t.Fatal("T broken")
	}
}

func TestMatMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randMat(rng, 1+rng.Intn(6), 1+rng.Intn(6))
		b := randMat(rng, a.Cols, 1+rng.Intn(6))
		c := randMat(rng, b.Cols, 1+rng.Intn(6))
		lhs := a.Mul(b).Mul(c)
		rhs := a.Mul(b.Mul(c))
		return matApproxEq(lhs, rhs, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randMat(rng, 4, 4)
	if !matApproxEq(a.Mul(Eye[float64](4)), a, 1e-15) {
		t.Error("A·I ≠ A")
	}
	if !matApproxEq(Eye[float64](4).Mul(a), a, 1e-15) {
		t.Error("I·A ≠ A")
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMat(rng, 5, 3)
	x := []float64{1, -2, 3}
	xm := NewMat[float64](3, 1)
	xm.SetCol(0, x)
	want := a.Mul(xm)
	got := a.MulVec(x)
	for i := range got {
		if math.Abs(got[i]-want.At(i, 0)) > 1e-14 {
			t.Fatalf("MulVec[%d] = %g, want %g", i, got[i], want.At(i, 0))
		}
	}
}

func TestComplexHConjugates(t *testing.T) {
	m := NewMat[complex128](1, 2)
	m.Set(0, 0, 1+2i)
	m.Set(0, 1, 3-4i)
	h := m.H()
	if h.At(0, 0) != 1-2i || h.At(1, 0) != 3+4i {
		t.Fatal("H conjugation wrong")
	}
}

func TestDenseLUSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(12)
		a := randMat(rng, n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+5) // well-conditioned
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := NewMat[float64](n, 1)
		copy(b.Data, a.MulVec(want))
		f, err := FactorLU(a)
		if err != nil {
			t.Fatal(err)
		}
		x, err := f.SolveMat(b)
		if err != nil {
			t.Fatal(err)
		}
		for i, got := range x.Data {
			if math.Abs(got-want[i]) > 1e-9 {
				t.Fatalf("trial %d: x[%d] = %g, want %g", trial, i, got, want[i])
			}
		}
	}
}

func TestDenseLUDetAndInverse(t *testing.T) {
	a := FromRows([][]float64{{4, 2}, {1, 3}})
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := f.Det(); math.Abs(d-10) > 1e-12 {
		t.Errorf("Det = %g, want 10", d)
	}
	inv, err := f.SolveMat(Eye[float64](2))
	if err != nil {
		t.Fatal(err)
	}
	if !matApproxEq(a.Mul(inv), Eye[float64](2), 1e-12) {
		t.Error("A·A⁻¹ ≠ I")
	}
}

func TestDenseLUSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := FactorLU(a); err == nil {
		t.Fatal("singular matrix not detected")
	}
}

func TestDenseLUComplex(t *testing.T) {
	a := NewMat[complex128](2, 2)
	a.Set(0, 0, 1+1i)
	a.Set(0, 1, 2)
	a.Set(1, 0, 0)
	a.Set(1, 1, 3-1i)
	want := []complex128{1 - 1i, 2 + 2i}
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]complex128, len(want))
	if err := f.Solve(got, a.MulVec(want)); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if absC(got[i]-want[i]) > 1e-12 {
			t.Fatalf("x[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func absC(z complex128) float64 { return math.Hypot(real(z), imag(z)) }
