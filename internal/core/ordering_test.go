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

// TestReduceOrdersFactorByDefault pins the pencil factor of a reduction with
// zero Options to the AMD ordering: ckt1@0.25's factor has 14,122 nonzeros
// in natural order and 6,692 under the exact-degree minimum-degree ordering
// AMD replaced; the ceiling is 1.1 × the latter.
func TestReduceOrdersFactorByDefault(t *testing.T) {
	sys := benchmarkSystem(t, grid.Ckt1, 0.25, false)
	var st Stats
	if _, err := Reduce(sys, Options{Stats: &st}); err != nil {
		t.Fatal(err)
	}
	const ceiling = 7361
	if st.FactorNNZ > ceiling {
		t.Fatalf("default reduction's factor has %d nonzeros, want ≤ %d", st.FactorNNZ, ceiling)
	}
}

// pencilAtS0 is the pencil s0·C - G that Reduce factors by default.
func pencilAtS0(sys *lti.SparseSystem) *sparse.CSR[float64] {
	return sys.C.Add(DefaultS0, sys.G, -1)
}

// factorReduce is BDSM one splitted system at a time, as referenceReduce
// drives it, on a given factor f of the pencil at DefaultS0, with solves
// counted here: the reference for the factor Reduce picks.
func factorReduce(t *testing.T, sys *lti.SparseSystem, l int, f sparse.Direct) (*lti.BlockDiagSystem, Stats) {
	t.Helper()
	n, m, p := sys.Dims()
	st := Stats{FactorNNZ: f.NNZ()}
	rom := &lti.BlockDiagSystem{M: m, P: p}
	w := make([]float64, n)
	for i := 0; i < m; i++ {
		basis := dense.NewBasis[float64](n, &st.Ortho)
		r := sys.BColumn(i)
		f.SolveBuf(r, r, w)
		st.PencilSolves++
		for j := 1; basis.AppendTol(r, dense.DeflationTol) && j < l; j++ {
			sys.C.MatVec(r, basis.Col(basis.Len()-1))
			f.SolveBuf(r, r, w)
			st.PencilSolves++
		}
		if basis.Len() == 0 {
			continue
		}
		rom.Blocks = append(rom.Blocks, krylov.CongruenceBlock(sys, basis, i))
		st.BasisColumns += basis.Len()
	}
	return rom, st
}

// TestReduceIndependentOfOrdering reduces every benchmark, RLC and RC-only,
// with Reduce's default (AMD-ordered) factor and with the natural-order
// one. The fill-reducing permutation changes only rounding: the transfer
// matrices agree to 1e-9 relative and the work counts are identical.
func TestReduceIndependentOfOrdering(t *testing.T) {
	// Scales keep each full system near a thousand or two states, where the
	// natural-order factor stays cheap.
	scales := map[string]float64{grid.Ckt1: 0.5, grid.Ckt2: 0.25, grid.Ckt3: 0.12, grid.Ckt4: 0.12, grid.Ckt5: 0.04}
	for _, name := range grid.Names() {
		for _, rcOnly := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/rcOnly=%v", name, rcOnly), func(t *testing.T) {
				sys := benchmarkSystem(t, name, scales[name], rcOnly)
				var sa Stats
				amd, err := Reduce(sys, Options{Moments: grid.MatchedMoments(name), Stats: &sa})
				if err != nil {
					t.Fatal(err)
				}
				f, err := sparse.Factor(pencilAtS0(sys), sparse.LUOptions{Ordering: sparse.OrderNatural})
				if err != nil {
					t.Fatal(err)
				}
				nat, sn := factorReduce(t, sys, grid.MatchedMoments(name), f)
				if sa.FactorNNZ >= sn.FactorNNZ {
					t.Errorf("AMD fill %d not below natural fill %d", sa.FactorNNZ, sn.FactorNNZ)
				}
				if sa.PencilSolves != sn.PencilSolves || sa.Ortho.DotProducts != sn.Ortho.DotProducts ||
					sa.BasisColumns != sn.BasisColumns {
					t.Errorf("work differs: solves %d/%d, dot products %d/%d, basis columns %d/%d",
						sa.PencilSolves, sn.PencilSolves, sa.Ortho.DotProducts, sn.Ortho.DotProducts,
						sa.BasisColumns, sn.BasisColumns)
				}
				for _, w := range []float64{1e6, 1e9, 3e9} {
					ha, err := amd.Eval(complex(0, w))
					if err != nil {
						t.Fatal(err)
					}
					hn, err := nat.Eval(complex(0, w))
					if err != nil {
						t.Fatal(err)
					}
					if e := maxAbsDiff(ha, hn) / hn.MaxAbs(); e > 1e-9 {
						t.Errorf("ω=%g: ROMs differ by %.3e relative", w, e)
					}
				}
			})
		}
	}
}

// benchmarkSystem builds a Table II benchmark, optionally RC-only.
func benchmarkSystem(t *testing.T, name string, scale float64, rcOnly bool) *lti.SparseSystem {
	t.Helper()
	cfg, err := grid.Benchmark(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RCOnly = rcOnly
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
