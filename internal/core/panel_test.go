package core

import (
	"fmt"
	"testing"

	"repro/internal/dense"
	"repro/internal/grid"
	"repro/internal/krylov"
	"repro/internal/lti"
	"repro/internal/sparse"
)

// referenceReduce is BDSM driven one splitted system at a time through the
// public single-vector calls (StartColumn, Apply, AppendTol,
// CongruenceBlock), with no panels: the oracle Reduce's panel solves must
// reproduce exactly.
func referenceReduce(t *testing.T, sys *lti.SparseSystem, opts Options) ([]lti.Block, Stats) {
	t.Helper()
	opts.Normalize()
	points := opts.Points
	if len(points) == 0 {
		points = []float64{opts.S0}
	}
	n, m, _ := sys.Dims()
	var st Stats
	wks := make([]*krylov.Worker, len(points))
	ops := make([]*krylov.Operator, len(points))
	for k, s0 := range points {
		op, err := krylov.NewOperator(sys, s0, krylov.OperatorOptions{
			Backend: opts.Backend, Iter: opts.Iter})
		if err != nil {
			t.Fatal(err)
		}
		ops[k], wks[k] = op, op.Worker()
	}
	chainTol := max(opts.TruncTol, dense.DeflationTol)
	w := make([]float64, n)
	var blocks []lti.Block
	for i := 0; i < m; i++ {
		basis := dense.NewBasis[float64](n, &st.Ortho)
		for _, wk := range wks {
			r, err := wk.StartColumn(i)
			if err != nil {
				t.Fatal(err)
			}
			accepted := basis.AppendTol(r, dense.DeflationTol)
			for j := 1; j < opts.Moments && accepted; j++ {
				if err := wk.Apply(w, basis.Col(basis.Len()-1)); err != nil {
					t.Fatal(err)
				}
				accepted = basis.AppendTol(w, chainTol)
			}
		}
		if basis.Len() == 0 {
			continue
		}
		blocks = append(blocks, krylov.CongruenceBlock(sys, basis, i))
		st.BasisColumns += basis.Len()
	}
	for _, op := range ops {
		st.PencilSolves += op.Solves()
	}
	return blocks, st
}

// rcGrid builds a small RC-only grid, whose pencil is SPD, with m ports.
func rcGrid(t *testing.T, ports int) *lti.SparseSystem {
	t.Helper()
	cfg := grid.Config{Name: "rc", NX: 9, NY: 8, Layers: 2, Ports: ports, Pads: 2,
		SheetR: 0.05, LayerRScale: 2, ViaR: 0.5, ViaPitch: 3, NodeC: 50e-15,
		PadR: 0.1, PadL: 0.5e-9, Variation: 0.2, Seed: 3, RCOnly: true}
	m, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := lti.NewSparseSystem(m.C, m.G, m.B, m.L)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// withZeroColumn returns sys with input column j of B zeroed.
func withZeroColumn(t *testing.T, sys *lti.SparseSystem, j int) *lti.SparseSystem {
	t.Helper()
	n, m, _ := sys.Dims()
	b := sparse.NewCOO[float64](n, m)
	for c := 0; c < m; c++ {
		if c == j {
			continue
		}
		for p := sys.B.ColPtr[c]; p < sys.B.ColPtr[c+1]; p++ {
			b.Add(sys.B.RowIdx[p], c, sys.B.Val[p])
		}
	}
	out, err := lti.NewSparseSystem(sys.C, sys.G, b.ToCSR(), sys.L)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func matEqual(a, b *dense.Mat[float64]) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

func blockEqual(a, b lti.Block) bool {
	if a.Input != b.Input || len(a.B) != len(b.B) {
		return false
	}
	for i := range a.B {
		if a.B[i] != b.B[i] {
			return false
		}
	}
	return matEqual(a.C, b.C) && matEqual(a.G, b.G) && matEqual(a.L, b.L)
}

// TestReducePanelsMatchSingleVectorReference pins the panel-solve Krylov
// phase to the single-vector one: identical blocks under ==, and identical
// pencil-solve, dot-product and basis-column counts, across port counts on
// both sides of the panel width, worker counts, chains that retire
// mid-panel, zero input columns (also as the only lane of the last panel),
// multi-point bases, and the Cholesky and iterative backends.
func TestReducePanelsMatchSingleVectorReference(t *testing.T) {
	base := testGrid(t, 12, 12, 1, 51)
	n, _, _ := base.Dims()
	cases := []struct {
		name  string
		sys   *lti.SparseSystem
		opts  Options
		mixed bool // some chains must retire while others in the panel go on
	}{
		{name: "m=1", sys: testGrid(t, 9, 8, 2, 1), opts: Options{Moments: 5}},
		{name: "m=7", sys: testGrid(t, 9, 8, 2, 7), opts: Options{Moments: 5}},
		{name: "m=8", sys: testGrid(t, 9, 8, 2, 8), opts: Options{Moments: 5}},
		{name: "m=9", sys: testGrid(t, 9, 8, 2, 9), opts: Options{Moments: 5}},
		{name: "m=51", sys: base, opts: Options{Moments: 6}},
		{name: "trunc", sys: base, opts: Options{Moments: 8, TruncTol: 1e-3}, mixed: true},
		{name: "zero-column", sys: withZeroColumn(t, base, 10), opts: Options{Moments: 4}},
		{name: "multipoint", sys: testGrid(t, 9, 8, 2, 9),
			opts: Options{Points: []float64{1e8, 1e10, 1e12}, Moments: 3}},
		{name: "multipoint-trunc", sys: testGrid(t, 9, 8, 2, 9),
			opts: Options{Points: []float64{1e8, 1e10}, Moments: 6, TruncTol: 1e-3}, mixed: true},
		{name: "iterative", sys: testGrid(t, 7, 7, 1, 9), opts: Options{Moments: 3,
			Backend: krylov.BackendIterative, Iter: sparse.IterOptions{Tol: 1e-13, MaxIter: 30 * n}}},
		{name: "cholesky", sys: rcGrid(t, 11), opts: Options{Moments: 4}},
		{name: "cholesky-multipoint-trunc", sys: rcGrid(t, 11), opts: Options{Points: []float64{1e8, 1e10},
			Moments: 6, TruncTol: 0.2}, mixed: true},
		// Large enough that congruence runs over several row blocks.
		{name: "m=17-zero-column-last-panel", sys: withZeroColumn(t, testGrid(t, 16, 12, 2, 17), 16),
			opts: Options{Moments: 5}},
	}
	for _, tc := range cases {
		want, wantSt := referenceReduce(t, tc.sys, tc.opts)
		if tc.mixed {
			lo, hi := want[0].Order(), want[0].Order()
			for _, b := range want {
				lo, hi = min(lo, b.Order()), max(hi, b.Order())
			}
			if lo == hi {
				t.Fatalf("%s: every block has order %d; no chain retired mid-panel", tc.name, lo)
			}
		}
		for _, workers := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				var st Stats
				opts := tc.opts
				opts.Workers, opts.Stats = workers, &st
				rom, err := Reduce(tc.sys, opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(rom.Blocks) != len(want) {
					t.Fatalf("%d blocks, reference %d", len(rom.Blocks), len(want))
				}
				for i := range want {
					if !blockEqual(rom.Blocks[i], want[i]) {
						t.Fatalf("block %d (input %d) differs from the single-vector reference", i, want[i].Input)
					}
				}
				if st.PencilSolves != wantSt.PencilSolves || st.Ortho != wantSt.Ortho ||
					st.BasisColumns != wantSt.BasisColumns {
					t.Fatalf("stats: %d solves, %+v, %d columns; reference %d, %+v, %d",
						st.PencilSolves, st.Ortho, st.BasisColumns,
						wantSt.PencilSolves, wantSt.Ortho, wantSt.BasisColumns)
				}
			})
		}
	}
}
