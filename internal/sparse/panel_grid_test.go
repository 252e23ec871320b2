package sparse_test

import (
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/lti"
	"repro/internal/sparse"
)

// gridPencil assembles the real pencil s0·C - G of a generated grid.
func gridPencil(t *testing.T, m *grid.Model) *sparse.CSR[float64] {
	t.Helper()
	sys, err := lti.NewSparseSystem(m.C, m.G, m.B, m.L)
	if err != nil {
		t.Fatal(err)
	}
	return sys.C.Add(1e9, sys.G, -1)
}

// panelMatchesSolveBuf solves eight Krylov-shaped right-hand sides — unit
// port columns, one zero lane and dense random columns — as one panel and
// as eight SolveBuf calls, and requires equality under ==.
func panelMatchesSolveBuf(t *testing.T, n int, solveBuf func(dst, b, w []float64), solvePanel func(x, w []float64)) {
	t.Helper()
	rng := rand.New(rand.NewSource(61))
	cols := make([][]float64, sparse.PanelWidth)
	for k := range cols {
		cols[k] = make([]float64, n)
		switch {
		case k < 3:
			cols[k][rng.Intn(n)] = -1
		case k > 3:
			for i := range cols[k] {
				cols[k][i] = rng.NormFloat64()
			}
		}
	}
	x := make([]float64, n*sparse.PanelWidth)
	w := make([]float64, len(x))
	sparse.PackPanel(x, cols)
	solvePanel(x, w)
	got := make([][]float64, sparse.PanelWidth)
	for k := range got {
		got[k] = make([]float64, n)
	}
	sparse.UnpackPanel(got, x)
	ref := make([]float64, n)
	for k, c := range cols {
		solveBuf(ref, c, w[:n])
		for i := range ref {
			if got[k][i] != ref[i] {
				t.Fatalf("lane %d row %d: panel %g, SolveBuf %g", k, i, got[k][i], ref[i])
			}
		}
	}
}

func TestSolvePanelCkt1Pencil(t *testing.T) {
	cfg, err := grid.Benchmark(grid.Ckt1, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	lu, err := sparse.FactorLU(gridPencil(t, m).ToCSC(), sparse.LUOptions{})
	if err != nil {
		t.Fatal(err)
	}
	panelMatchesSolveBuf(t, lu.N(), lu.SolveBuf, lu.SolvePanel)
}

func TestSolvePanelMultiscaleCholesky(t *testing.T) {
	cfg, err := grid.MultiscaleBenchmark(3000)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	ch, err := sparse.FactorCholesky(gridPencil(t, m).ToCSC(), sparse.LUOptions{})
	if err != nil {
		t.Fatal(err)
	}
	panelMatchesSolveBuf(t, ch.N(), ch.SolveBuf, ch.SolvePanel)
}
