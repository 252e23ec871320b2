package sparse

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// laplacian2D builds the 5-point grounded Laplacian of an nx×ny grid plus a
// diagonal shift — the archetypal power-grid conductance structure.
func laplacian2D(nx, ny int, shift float64) *CSC[float64] {
	n := nx * ny
	c := NewCOO[float64](n, n)
	id := func(x, y int) int { return y*nx + x }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			i := id(x, y)
			deg := 0.0
			if x > 0 {
				c.Add(i, id(x-1, y), -1)
				deg++
			}
			if x < nx-1 {
				c.Add(i, id(x+1, y), -1)
				deg++
			}
			if y > 0 {
				c.Add(i, id(x, y-1), -1)
				deg++
			}
			if y < ny-1 {
				c.Add(i, id(x, y+1), -1)
				deg++
			}
			c.Add(i, i, deg+shift)
		}
	}
	return c.ToCSC()
}

func randomSquareCSC(rng *rand.Rand, n int, density float64) *CSC[float64] {
	c := NewCOO[float64](n, n)
	// Diagonally dominant to guarantee nonsingularity.
	for i := 0; i < n; i++ {
		c.Add(i, i, 4+rng.Float64())
	}
	extra := int(density * float64(n*n))
	for k := 0; k < extra; k++ {
		c.Add(rng.Intn(n), rng.Intn(n), rng.NormFloat64())
	}
	return c.ToCSC()
}

func solveResidual(t *testing.T, a *CSC[float64], lu *LU[float64], rng *rand.Rand) float64 {
	t.Helper()
	n, _ := a.Dims()
	want := make([]float64, n)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	a.MatVec(b, want)
	got := make([]float64, n)
	if err := lu.Solve(got, b); err != nil {
		t.Fatalf("Solve: %v", err)
	}
	maxErr := 0.0
	for i := range got {
		if e := math.Abs(got[i] - want[i]); e > maxErr {
			maxErr = e
		}
	}
	return maxErr
}

func TestLUSolveIdentity(t *testing.T) {
	c := NewCOO[float64](3, 3)
	for i := 0; i < 3; i++ {
		c.Add(i, i, 1)
	}
	lu, err := FactorLU(c.ToCSC(), LUOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 2, 3}
	x := make([]float64, 3)
	if err := lu.Solve(x, b); err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if math.Abs(x[i]-b[i]) > 1e-15 {
			t.Fatalf("identity solve x[%d] = %g, want %g", i, x[i], b[i])
		}
	}
}

func TestLUSolveKnown2x2(t *testing.T) {
	// [2 1; 1 3] x = [3; 5]  =>  x = [4/5, 7/5].
	c := NewCOO[float64](2, 2)
	c.Add(0, 0, 2)
	c.Add(0, 1, 1)
	c.Add(1, 0, 1)
	c.Add(1, 1, 3)
	lu, err := FactorLU(c.ToCSC(), LUOptions{Ordering: OrderNatural})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 2)
	if err := lu.Solve(x, []float64{3, 5}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-0.8) > 1e-14 || math.Abs(x[1]-1.4) > 1e-14 {
		t.Fatalf("x = %v, want [0.8 1.4]", x)
	}
}

func TestLURequiresPivoting(t *testing.T) {
	// Zero diagonal head forces a row interchange.
	c := NewCOO[float64](2, 2)
	c.Add(0, 1, 1)
	c.Add(1, 0, 1)
	c.Add(1, 1, 1)
	lu, err := FactorLU(c.ToCSC(), LUOptions{Ordering: OrderNatural})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 2)
	if err := lu.Solve(x, []float64{2, 5}); err != nil {
		t.Fatal(err)
	}
	// x1 = 2, x0 = 5 - x1 = 3.
	if math.Abs(x[0]-3) > 1e-14 || math.Abs(x[1]-2) > 1e-14 {
		t.Fatalf("x = %v, want [3 2]", x)
	}
}

func TestLUSingularDetected(t *testing.T) {
	c := NewCOO[float64](3, 3)
	c.Add(0, 0, 1)
	c.Add(1, 1, 1)
	// Row/column 2 entirely zero.
	c.Add(2, 2, 0)
	_, err := FactorLU(c.ToCSC(), LUOptions{})
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestLUNonSquareRejected(t *testing.T) {
	c := NewCOO[float64](2, 3)
	c.Add(0, 0, 1)
	if _, err := FactorLU(c.ToCSC(), LUOptions{}); err == nil {
		t.Fatal("non-square factorization must fail")
	}
}

func TestLUSolveRandomAllOrderings(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, ord := range []Ordering{OrderNatural, OrderAMD} {
		for trial := 0; trial < 10; trial++ {
			n := 5 + rng.Intn(60)
			a := randomSquareCSC(rng, n, 0.1)
			lu, err := FactorLU(a, LUOptions{Ordering: ord})
			if err != nil {
				t.Fatalf("%v n=%d: %v", ord, n, err)
			}
			if e := solveResidual(t, a, lu, rng); e > 1e-8 {
				t.Fatalf("%v n=%d: solve error %.3e", ord, n, e)
			}
		}
	}
}

func TestLUSolveLaplacian(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	a := laplacian2D(20, 17, 0.05)
	for _, ord := range []Ordering{OrderNatural, OrderAMD} {
		lu, err := FactorLU(a, LUOptions{Ordering: ord})
		if err != nil {
			t.Fatalf("%v: %v", ord, err)
		}
		if e := solveResidual(t, a, lu, rng); e > 1e-8 {
			t.Fatalf("%v: solve error %.3e", ord, e)
		}
	}
}

func TestLUOrderingReducesFill(t *testing.T) {
	a := laplacian2D(40, 40, 0.05)
	nat, err := FactorLU(a, LUOptions{Ordering: OrderNatural})
	if err != nil {
		t.Fatal(err)
	}
	amd, err := FactorLU(a, LUOptions{Ordering: OrderAMD})
	if err != nil {
		t.Fatal(err)
	}
	if amd.NNZ() >= nat.NNZ() {
		t.Errorf("AMD fill %d not below natural fill %d on 40×40 grid", amd.NNZ(), nat.NNZ())
	}
}

func TestLUSolveManyMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := randomSquareCSC(rng, 30, 0.1)
	lu, err := FactorLU(a, LUOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// 19 columns: two full panels and a partial one, each column equal to
	// its single-vector solve under ==.
	cols := make([][]float64, 19)
	want := make([][]float64, len(cols))
	for c := range cols {
		cols[c] = mustVec(rng, 30)
		want[c] = make([]float64, 30)
		if err := lu.Solve(want[c], cols[c]); err != nil {
			t.Fatal(err)
		}
	}
	if err := SolveMany(lu, cols); err != nil {
		t.Fatal(err)
	}
	for c := range cols {
		for i := range cols[c] {
			if cols[c][i] != want[c][i] {
				t.Fatalf("SolveMany col %d row %d: %g, Solve %g", c, i, cols[c][i], want[c][i])
			}
		}
	}
}

func TestLUReconstructionProperty(t *testing.T) {
	// Verify A x = b round trip via residual ‖Ax - b‖/‖b‖ for random SPD-ish
	// systems under quick.Check.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(40)
		a := randomSquareCSC(rng, n, 0.15)
		lu, err := FactorLU(a, LUOptions{Ordering: OrderAMD})
		if err != nil {
			return false
		}
		b := mustVec(rng, n)
		x := make([]float64, n)
		if err := lu.Solve(x, b); err != nil {
			return false
		}
		r := make([]float64, n)
		a.MatVec(r, x)
		Axpy(r, -1, b)
		return Nrm2(r) <= 1e-8*(1+Nrm2(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLUComplexSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	n := 25
	c := NewCOO[complex128](n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, complex(4+rng.Float64(), 1+rng.Float64()))
	}
	for k := 0; k < 3*n; k++ {
		c.Add(rng.Intn(n), rng.Intn(n), complex(rng.NormFloat64(), rng.NormFloat64()))
	}
	a := c.ToCSC()
	lu, err := FactorLU(a, LUOptions{})
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
	if err := lu.Solve(got, b); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("complex solve error at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestLUSolveAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a := randomSquareCSC(rng, 20, 0.15)
	lu, err := FactorLU(a, LUOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b := mustVec(rng, 20)
	want := make([]float64, 20)
	if err := lu.Solve(want, b); err != nil {
		t.Fatal(err)
	}
	// In-place: dst aliases b.
	if err := lu.Solve(b, b); err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if b[i] != want[i] {
			t.Fatalf("aliased solve differs at %d", i)
		}
	}
}
