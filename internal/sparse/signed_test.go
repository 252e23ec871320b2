package sparse

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// quasiDefinite returns a random n×n matrix in MNA form, A = S·M with
// S = diag(s), where M is symmetric quasi-definite: on the rows with s = +1
// ("nodes") an SPD block H, on the rows with s = −1 ("inductor currents",
// interleaved at random) a negative definite block −F, and random couplings
// E between them. A's node–inductor couplings are therefore antisymmetric,
// and its diagonal is positive. With roundoff, one antisymmetric pair in
// three has its mirror entry off by up to two ulps, as a Schur complement
// leaves the inductor couplings of a Ward-reduced grid.
func quasiDefinite(rng *rand.Rand, n int, roundoff bool) (*CSR[float64], []float64) {
	s := make([]float64, n)
	for i := range s {
		s[i] = 1
		if rng.Float64() < 0.3 {
			s[i] = -1
		}
	}
	c := NewCOO[float64](n, n)
	diag := make([]float64, n) // |M_ii|, dominant over each row's couplings
	for i := range diag {
		diag[i] = 1 + rng.Float64()
	}
	seen := make(map[[2]int]bool)
	for k := 0; k < 3*n; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j || seen[[2]int{i, j}] || seen[[2]int{j, i}] {
			continue
		}
		seen[[2]int{i, j}] = true
		v := rng.NormFloat64()
		mirror := v
		if roundoff && s[i] != s[j] && rng.Intn(3) == 0 {
			mirror *= 1 + float64(rng.Intn(5)-2)*0x1p-52
		}
		c.Add(i, j, s[i]*v)
		c.Add(j, i, s[j]*mirror)
		diag[i] += math.Abs(v)
		diag[j] += math.Abs(v)
	}
	for i, d := range diag {
		c.Add(i, i, d)
	}
	return c.ToCSR(), s
}

// relDiff returns max|x−y| / max|y|.
func relDiff(x, y []float64) float64 {
	num, den := 0.0, 0.0
	for i := range x {
		num = math.Max(num, math.Abs(x[i]-y[i]))
		den = math.Max(den, math.Abs(y[i]))
	}
	return num / den
}

// TestSignedCholeskyMatchesLU: on random quasi-definite MNA-form matrices,
// with and without roundoff in the antisymmetric couplings, Factor picks
// the signed Cholesky factor under every ordering, its row signing makes
// the matrix symmetric, its fill is below LU's, and its solves match LU's
// to 1e-10 relative.
func TestSignedCholeskyMatchesLU(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(80)
		a, _ := quasiDefinite(rng, n, trial%2 == 1)
		sa, s := signedCSC(a)
		if s == nil {
			t.Fatalf("trial %d: no signing found", trial)
		}
		if !IsSymmetric(sa.ToCSR(), symTol) {
			t.Fatalf("trial %d: S·A is not symmetric", trial)
		}
		b := mustVec(rng, n)
		for _, ord := range []Ordering{OrderNatural, OrderAMD} {
			f, err := Factor(a, LUOptions{Ordering: ord})
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, ord, err)
			}
			ch, ok := f.(*Cholesky)
			if !ok {
				t.Fatalf("trial %d %v: Factor picked %T, want *Cholesky", trial, ord, f)
			}
			lu, err := FactorLU(a.ToCSC(), LUOptions{Ordering: ord})
			if err != nil {
				t.Fatal(err)
			}
			if n > 10 && ch.NNZ() >= lu.NNZ() {
				t.Errorf("trial %d %v: symmetric fill %d not below LU fill %d", trial, ord, ch.NNZ(), lu.NNZ())
			}
			x1 := make([]float64, n)
			x2 := make([]float64, n)
			if err := ch.Solve(x1, b); err != nil {
				t.Fatal(err)
			}
			if err := lu.Solve(x2, b); err != nil {
				t.Fatal(err)
			}
			if e := relDiff(x1, x2); e > 1e-10 {
				t.Fatalf("trial %d %v: signed Cholesky and LU differ by %.3g relative", trial, ord, e)
			}
		}
	}
}

// TestSignedCholeskyMatchesCholeskyOnSPD: on an SPD matrix the row signing
// is the identity, so the symmetric factor is FactorCholesky's factor and
// solves bit for bit like it.
func TestSignedCholeskyMatchesCholeskyOnSPD(t *testing.T) {
	a := laplacian2D(13, 11, 0.2)
	ch, err := FactorCholesky(a, LUOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := factorSigned(a.ToCSR(), LUOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n, _ := a.Dims()
	b := mustVec(rand.New(rand.NewSource(67)), n)
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	if err := ch.Solve(x1, b); err != nil {
		t.Fatal(err)
	}
	if err := sc.Solve(x2, b); err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("row %d: %v vs %v", i, x2[i], x1[i])
		}
	}
}

func TestSignedCholeskySolvePanelMatchesSolveBuf(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for _, n := range []int{1, 3, 25, 90} {
		a, _ := quasiDefinite(rng, n, true)
		for _, ord := range []Ordering{OrderNatural, OrderAMD} {
			ch, err := factorSigned(a, LUOptions{Ordering: ord})
			if err != nil {
				t.Fatal(err)
			}
			panelCases(t, cholPanelSolver(ch), rng, rng.NormFloat64)
		}
	}
}

// TestSignedCholeskyRejectsIndefinite: a symmetric matrix with a negative
// diagonal entry is indefinite but not quasi-definite under its signing
// (S = I), so some pivot is negative under every ordering: the certificate
// fails, and Factor falls back to LU.
func TestSignedCholeskyRejectsIndefinite(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(40)
		c := NewCOO[float64](n, n)
		for i := 0; i < n; i++ {
			c.Add(i, i, 4+rng.Float64())
		}
		c.Add(rng.Intn(n), rng.Intn(n), -20)
		for k := 0; k < 2*n; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				v := rng.NormFloat64()
				c.Add(i, j, v)
				c.Add(j, i, v)
			}
		}
		a := c.ToCSR()
		for _, ord := range []Ordering{OrderNatural, OrderAMD} {
			if _, err := factorSigned(a, LUOptions{Ordering: ord}); !errors.Is(err, ErrNotSPD) {
				t.Fatalf("trial %d %v: err = %v, want ErrNotSPD", trial, ord, err)
			}
			checkFallsBackToLU(t, a, ord)
		}
	}
	// −A of a quasi-definite A keeps A's signing, but every pivot of S·(−A)
	// has the wrong sign. The fallback must see −A, not its signed form.
	for trial := 0; trial < 10; trial++ {
		a, _ := quasiDefinite(rng, 2+rng.Intn(40), trial%2 == 1)
		a.Scale(-1)
		for _, ord := range []Ordering{OrderNatural, OrderAMD} {
			if _, err := factorSigned(a, LUOptions{Ordering: ord}); !errors.Is(err, ErrNotSPD) {
				t.Fatalf("negated trial %d %v: err = %v, want ErrNotSPD", trial, ord, err)
			}
			checkFallsBackToLU(t, a, ord)
		}
	}
}

// factorSigned is Factor's signed Cholesky path alone: ErrNotSPD when no
// row signing makes a symmetric or a pivot's sign disagrees with its row's.
func factorSigned(a *CSR[float64], opts LUOptions) (*Cholesky, error) {
	sa, s := signedCSC(a)
	if s == nil {
		return nil, fmt.Errorf("%w: not symmetric up to a row signing", ErrNotSPD)
	}
	return factorCholesky(sa, s, opts)
}

// checkFallsBackToLU requires Factor to pick LU for a and to solve a.
func checkFallsBackToLU(t *testing.T, a *CSR[float64], ord Ordering) {
	t.Helper()
	f, err := Factor(a, LUOptions{Ordering: ord})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.(*LU[float64]); !ok {
		t.Fatalf("%v: Factor picked %T, want *LU", ord, f)
	}
	n, _ := a.Dims()
	want := mustVec(rand.New(rand.NewSource(int64(n))), n)
	b := make([]float64, n)
	a.MatVec(b, want)
	got := make([]float64, n)
	if err := f.Solve(got, b); err != nil {
		t.Fatal(err)
	}
	if e := relDiff(got, want); e > 1e-8 {
		t.Fatalf("%v: LU fallback solve off by %.3g relative", ord, e)
	}
}

// TestSigningRejectsUnsymmetric: no signing exists for a pattern with an
// unmatched mirror entry, for a pair that is neither symmetric nor
// antisymmetric, or for an odd cycle of antisymmetric couplings; Factor
// then factors with LU.
func TestSigningRejectsUnsymmetric(t *testing.T) {
	build := func(entries ...[3]float64) *CSR[float64] {
		c := NewCOO[float64](3, 3)
		for i := 0; i < 3; i++ {
			c.Add(i, i, 4)
		}
		for _, e := range entries {
			c.Add(int(e[0]), int(e[1]), e[2])
		}
		return c.ToCSR()
	}
	for name, a := range map[string]*CSR[float64]{
		"unmatched mirror": build([3]float64{0, 1, 1}, [3]float64{1, 0, -1}, [3]float64{1, 2, 1}),
		"neither":          build([3]float64{0, 1, 1}, [3]float64{1, 0, 0.5}),
		"odd cycle": build([3]float64{0, 1, 1}, [3]float64{1, 0, -1}, [3]float64{1, 2, 1},
			[3]float64{2, 1, -1}, [3]float64{2, 0, 1}, [3]float64{0, 2, -1}),
	} {
		if _, s := signedCSC(a); s != nil {
			t.Errorf("%s: signing %v found", name, s)
		}
		if _, err := factorSigned(a, LUOptions{}); !errors.Is(err, ErrNotSPD) {
			t.Errorf("%s: err = %v, want ErrNotSPD", name, err)
		}
		checkFallsBackToLU(t, a, OrderAMD)
	}
	// An even cycle of antisymmetric couplings signs fine.
	a := build([3]float64{0, 1, 1}, [3]float64{1, 0, -1}, [3]float64{1, 2, 1},
		[3]float64{2, 1, -1}, [3]float64{2, 0, 1}, [3]float64{0, 2, 1})
	if _, s := signedCSC(a); s == nil || s[0] != 1 || s[1] != -1 || s[2] != 1 {
		t.Errorf("even cycle: signing %v, want [1 -1 1]", s)
	}
}

// The signed kernel is Cholesky.SolvePanel itself; this pins it
// allocation-free with a non-identity Σ as well.
//
//pgmor:alloctest Cholesky.SolvePanel
func TestSignedCholeskySolvePanelAllocs(t *testing.T) {
	a, _ := quasiDefinite(rand.New(rand.NewSource(69)), 150, true)
	ch, err := factorSigned(a, LUOptions{})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, ch.N()*PanelWidth)
	w := make([]float64, len(x))
	for i := range x {
		x[i] = 1
	}
	allocs := testing.AllocsPerRun(50, func() { ch.SolvePanel(x, w) })
	if allocs != 0 {
		t.Fatalf("signed Cholesky.SolvePanel allocates %.1f times per call, want 0", allocs)
	}
}
