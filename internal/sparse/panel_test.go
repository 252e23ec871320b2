package sparse

import (
	"math/rand"
	"testing"
)

// panelSolver is the pair of entry points a panel test compares: the
// single-vector SolveBuf reference and the interleaved SolvePanel kernel.
type panelSolver[T Scalar] struct {
	n          int
	solveBuf   func(dst, b, w []T)
	solvePanel func(x, w []T)
}

func luPanelSolver[T Scalar](lu *LU[T]) panelSolver[T] {
	return panelSolver[T]{n: lu.N(), solveBuf: lu.SolveBuf, solvePanel: lu.SolvePanel}
}

func cholPanelSolver(c *Cholesky) panelSolver[float64] {
	return panelSolver[float64]{n: c.N(), solveBuf: c.SolveBuf, solvePanel: c.SolvePanel}
}

// checkPanelEqual solves cols (at most PanelWidth; nil columns are zero
// lanes) once through SolvePanel and once per column through SolveBuf and
// requires every lane to equal its reference under ==; padding lanes must
// come back zero.
func checkPanelEqual[T Scalar](t *testing.T, s panelSolver[T], cols [][]T) {
	t.Helper()
	n := s.n
	x := make([]T, n*PanelWidth)
	w := make([]T, n*PanelWidth)
	PackPanel(x, cols)
	s.solvePanel(x, w)
	got := make([][]T, PanelWidth)
	for k := range got {
		got[k] = make([]T, n)
	}
	UnpackPanel(got, x)
	ref := make([]T, n)
	buf := make([]T, n)
	for k := 0; k < PanelWidth; k++ {
		if k < len(cols) && cols[k] != nil {
			s.solveBuf(ref, cols[k], buf)
		} else {
			clear(ref)
		}
		for i := range ref {
			if got[k][i] != ref[i] {
				t.Fatalf("width %d lane %d row %d: panel %v, SolveBuf %v", len(cols), k, i, got[k][i], ref[i])
			}
		}
	}
}

// panelCases drives one solver through the lane shapes a Krylov panel
// produces: widths 1–8 padded with zero lanes, all-zero lanes between live
// ones, and lanes that are zero on most rows (unit start vectors).
func panelCases[T Scalar](t *testing.T, s panelSolver[T], rng *rand.Rand, draw func() T) {
	t.Helper()
	n := s.n
	randCol := func() []T {
		c := make([]T, n)
		for i := range c {
			c[i] = draw()
		}
		return c
	}
	for width := 1; width <= PanelWidth; width++ {
		cols := make([][]T, width)
		for k := range cols {
			cols[k] = randCol()
		}
		checkPanelEqual(t, s, cols)
	}
	// All-zero lanes, both as nil (packed zero) and as explicit zero vectors.
	cols := make([][]T, PanelWidth)
	for k := range cols {
		switch k % 3 {
		case 0:
			cols[k] = randCol()
		case 1:
			cols[k] = make([]T, n)
		}
	}
	checkPanelEqual(t, s, cols)
	// Lanes zero on most rows: a few nonzeros each, so whole panel rows are
	// zero and only some lanes are live on the others.
	for k := range cols {
		cols[k] = make([]T, n)
		for j := 0; j <= k%3; j++ {
			cols[k][rng.Intn(n)] = draw()
		}
	}
	checkPanelEqual(t, s, cols)
	checkPanelEqual(t, s, [][]T{nil, nil, nil})
}

func TestLUSolvePanelMatchesSolveBuf(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, n := range []int{1, 2, 7, 30, 120} {
		for _, ord := range []Ordering{OrderNatural, OrderAMD} {
			lu, err := FactorLU(randomSquareCSC(rng, n, 0.08), LUOptions{Ordering: ord})
			if err != nil {
				t.Fatal(err)
			}
			panelCases(t, luPanelSolver(lu), rng, rng.NormFloat64)
		}
	}
	lu, err := FactorLU(laplacian2D(15, 13, 0.01), LUOptions{})
	if err != nil {
		t.Fatal(err)
	}
	panelCases(t, luPanelSolver(lu), rng, rng.NormFloat64)
}

func TestLUSolvePanelComplex(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	n := 40
	c := NewCOO[complex128](n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, complex(4+rng.Float64(), 1+rng.Float64()))
	}
	for k := 0; k < 3*n; k++ {
		c.Add(rng.Intn(n), rng.Intn(n), complex(rng.NormFloat64(), rng.NormFloat64()))
	}
	lu, err := FactorLU(c.ToCSC(), LUOptions{})
	if err != nil {
		t.Fatal(err)
	}
	panelCases(t, luPanelSolver(lu), rng, func() complex128 {
		return complex(rng.NormFloat64(), rng.NormFloat64())
	})
}

func TestCholeskySolvePanelMatchesSolveBuf(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for _, n := range []int{1, 3, 25, 90} {
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
		}
		for _, ord := range []Ordering{OrderNatural, OrderAMD} {
			ch, err := FactorCholesky(c.ToCSC(), LUOptions{Ordering: ord})
			if err != nil {
				t.Fatal(err)
			}
			panelCases(t, cholPanelSolver(ch), rng, rng.NormFloat64)
		}
	}
	ch, err := FactorCholesky(laplacian2D(17, 11, 0.01), LUOptions{Ordering: OrderAMD})
	if err != nil {
		t.Fatal(err)
	}
	panelCases(t, cholPanelSolver(ch), rng, rng.NormFloat64)
}

// The panel kernels run once per Krylov level per panel of splitted systems;
// like the single-vector solves they replace, they must not allocate.

//pgmor:alloctest LU.SolvePanel
func TestLUSolvePanelAllocs(t *testing.T) {
	lu, err := FactorLU(laplacian2D(12, 12, 0.01), LUOptions{})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, lu.N()*PanelWidth)
	w := make([]float64, len(x))
	for i := range x {
		x[i] = 1
	}
	allocs := testing.AllocsPerRun(50, func() { lu.SolvePanel(x, w) })
	if allocs != 0 {
		t.Fatalf("LU.SolvePanel allocates %.1f times per call, want 0", allocs)
	}
}

//pgmor:alloctest Cholesky.SolvePanel
func TestCholeskySolvePanelAllocs(t *testing.T) {
	ch, err := FactorCholesky(laplacian2D(12, 12, 0.01), LUOptions{Ordering: OrderAMD})
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
		t.Fatalf("Cholesky.SolvePanel allocates %.1f times per call, want 0", allocs)
	}
}
