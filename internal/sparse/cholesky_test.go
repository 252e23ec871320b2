package sparse

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// FactorCholesky factors the SPD matrix a through factorCholesky with unit
// signs, under the selected fill-reducing ordering (the zero LUOptions
// orders by AMD). Returns ErrNotSPD for indefinite or
// unsymmetric-beyond-roundoff inputs (only the lower triangle of the
// permuted matrix is read, so structural symmetry is the caller's
// responsibility; use IsSymmetric).
func FactorCholesky(a *CSC[float64], opts LUOptions) (*Cholesky, error) {
	s := make([]float64, a.cols)
	for i := range s {
		s[i] = 1
	}
	return factorCholesky(a, s, opts)
}

func TestCholeskySolvesLaplacian(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, ord := range []Ordering{OrderNatural, OrderAMD} {
		a := laplacian2D(17, 13, 0.3)
		ch, err := FactorCholesky(a, LUOptions{Ordering: ord})
		if err != nil {
			t.Fatalf("%v: %v", ord, err)
		}
		n, _ := a.Dims()
		want := mustVec(rng, n)
		b := make([]float64, n)
		a.MatVec(b, want)
		got := make([]float64, n)
		if err := ch.Solve(got, b); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				t.Fatalf("%v: error at %d: %g vs %g", ord, i, got[i], want[i])
			}
		}
	}
}

func TestCholeskyMatchesLU(t *testing.T) {
	a := laplacian2D(12, 12, 0.5)
	n, _ := a.Dims()
	ch, err := FactorCholesky(a, LUOptions{Ordering: OrderAMD})
	if err != nil {
		t.Fatal(err)
	}
	lu, err := FactorLU(a, LUOptions{Ordering: OrderAMD})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	b := mustVec(rng, n)
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	if err := ch.Solve(x1, b); err != nil {
		t.Fatal(err)
	}
	if err := lu.Solve(x2, b); err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if math.Abs(x1[i]-x2[i]) > 1e-9*(1+math.Abs(x2[i])) {
			t.Fatalf("Cholesky/LU disagree at %d: %g vs %g", i, x1[i], x2[i])
		}
	}
	// Cholesky stores roughly half of LU's fill on the same ordering.
	if ch.NNZ() >= lu.NNZ() {
		t.Errorf("Cholesky fill %d not below LU fill %d", ch.NNZ(), lu.NNZ())
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	c := NewCOO[float64](2, 2)
	c.Add(0, 0, 1)
	c.Add(1, 1, -1) // indefinite
	if _, err := FactorCholesky(c.ToCSC(), LUOptions{}); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("err = %v, want ErrNotSPD", err)
	}
	// Positive semidefinite singular: [1 1; 1 1].
	s := NewCOO[float64](2, 2)
	s.Add(0, 0, 1)
	s.Add(0, 1, 1)
	s.Add(1, 0, 1)
	s.Add(1, 1, 1)
	if _, err := FactorCholesky(s.ToCSC(), LUOptions{}); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("singular PSD: err = %v, want ErrNotSPD", err)
	}
	if _, err := FactorCholesky(NewCOO[float64](2, 3).ToCSC(), LUOptions{}); err == nil {
		t.Fatal("non-square accepted")
	}
}

func TestCholeskyRandomSPDProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		// Symmetric with a random sparse pattern, and SPD by strict diagonal
		// dominance: each off-diagonal pair also adds |v| to both diagonals.
		c := NewCOO[float64](n, n)
		for i := 0; i < n; i++ {
			c.Add(i, i, float64(n))
		}
		for k := 0; k < 2*n; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			v := rng.NormFloat64() * 0.5
			c.Add(i, j, v)
			c.Add(j, i, v)
			c.Add(i, i, math.Abs(v))
			c.Add(j, j, math.Abs(v))
		}
		a := c.ToCSC()
		ch, err := FactorCholesky(a, LUOptions{Ordering: OrderAMD})
		if err != nil {
			return false
		}
		want := mustVec(rng, n)
		b := make([]float64, n)
		a.MatVec(b, want)
		got := make([]float64, n)
		if err := ch.Solve(got, b); err != nil {
			return false
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-7*(1+math.Abs(want[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestIsSymmetric(t *testing.T) {
	c := NewCOO[float64](2, 2)
	c.Add(0, 1, 2)
	c.Add(1, 0, 2)
	c.Add(0, 0, 1)
	if !IsSymmetric(c.ToCSR(), 1e-12) {
		t.Error("symmetric matrix rejected")
	}
	c2 := NewCOO[float64](2, 2)
	c2.Add(0, 1, 2)
	c2.Add(1, 0, 2.5)
	if IsSymmetric(c2.ToCSR(), 1e-12) {
		t.Error("value-asymmetric matrix accepted")
	}
	c3 := NewCOO[float64](2, 2)
	c3.Add(0, 1, 2)
	if IsSymmetric(c3.ToCSR(), 1e-12) {
		t.Error("pattern-asymmetric matrix accepted")
	}
	if IsSymmetric(NewCOO[float64](2, 3).ToCSR(), 1e-12) {
		t.Error("non-square accepted")
	}
}

// TestIsSymmetricMatchesTranspose pins IsSymmetric to its definition,
// A = Aᵀ entry by entry within tol, on random matrices that are symmetric,
// symmetric but for one value, symmetric but for one entry, or symmetric
// with a NaN on the diagonal (which no tolerance accepts).
func TestIsSymmetricMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	byTranspose := func(a *CSR[float64], tol float64) bool {
		at := a.Transpose()
		if !slices.Equal(a.RowPtr, at.RowPtr) || !slices.Equal(a.ColIdx, at.ColIdx) {
			return false
		}
		for k := range a.Val {
			if !near(a.Val[k], at.Val[k], tol) {
				return false
			}
		}
		return true
	}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(30)
		c := NewCOO[float64](n, n)
		for k := 0; k < 3*n; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			v := rng.NormFloat64()
			c.Add(i, j, v)
			if i != j {
				c.Add(j, i, v*(1+float64(rng.Intn(3)-1)*1e-13))
			}
		}
		switch trial % 4 {
		case 1:
			i, j := rng.Intn(n), rng.Intn(n)
			c.Add(i, j, 1e-3)
		case 2:
			c.Add(rng.Intn(n), rng.Intn(n), 0)
		case 3:
			i := rng.Intn(n)
			c.Add(i, i, math.NaN())
		}
		a := c.ToCSR()
		for _, tol := range []float64{1e-12, 1e-14} {
			if got, want := IsSymmetric(a, tol), byTranspose(a, tol); got != want {
				t.Fatalf("trial %d tol %g: IsSymmetric = %v, by transpose %v", trial, tol, got, want)
			}
		}
	}
}

func TestCholeskySolverInterface(t *testing.T) {
	var _ Solver[float64] = (*Cholesky)(nil)
}
