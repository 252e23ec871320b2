package core

import (
	"fmt"
	"testing"

	"repro/internal/grid"
	"repro/internal/sparse"
	"repro/internal/ward"
)

// TestReduceSymmetricFactorMatchesLU reduces every RLC benchmark, with and
// without Ward pre-reduction (whose Schur complement leaves the inductor
// couplings antisymmetric only to roundoff), through Reduce — whose direct
// backend takes the signed Cholesky factor of the quasi-definite pencil —
// and through factorReduce on the sparse LU factor. The factor changes only
// rounding: the ROMs agree to 1e-10 relative, the work counts are
// identical, and the symmetric factor holds at most 0.55× LU's nonzeros.
func TestReduceSymmetricFactorMatchesLU(t *testing.T) {
	scales := map[string]float64{grid.Ckt1: 1, grid.Ckt2: 0.25, grid.Ckt3: 0.12, grid.Ckt4: 0.12, grid.Ckt5: 0.04}
	for _, name := range grid.Names() {
		sys := benchmarkSystem(t, name, scales[name], false)
		for _, wardOn := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/ward=%v", name, wardOn), func(t *testing.T) {
				l := grid.MatchedMoments(name)
				var ss Stats
				sym, err := Reduce(sys, Options{Moments: l, WardReduce: wardOn, Stats: &ss})
				if err != nil {
					t.Fatal(err)
				}
				ref := sys
				if wardOn {
					wres, err := ward.Reduce(sys, ward.Options{})
					if err != nil {
						t.Fatal(err)
					}
					ref = wres.Sys
				}
				f, err := sparse.FactorLU(pencilAtS0(ref).ToCSC(), sparse.LUOptions{})
				if err != nil {
					t.Fatal(err)
				}
				lu, sl := factorReduce(t, ref, l, f)
				if float64(ss.FactorNNZ) > 0.55*float64(sl.FactorNNZ) {
					t.Errorf("symmetric factor fill %d above 0.55 × LU fill %d", ss.FactorNNZ, sl.FactorNNZ)
				}
				if ss.PencilSolves != sl.PencilSolves || ss.Ortho.DotProducts != sl.Ortho.DotProducts ||
					ss.BasisColumns != sl.BasisColumns {
					t.Errorf("work differs: solves %d/%d, dot products %d/%d, basis columns %d/%d",
						ss.PencilSolves, sl.PencilSolves, ss.Ortho.DotProducts, sl.Ortho.DotProducts,
						ss.BasisColumns, sl.BasisColumns)
				}
				for _, w := range []float64{1e6, 1e9, 3e9} {
					hs, err := sym.Eval(complex(0, w))
					if err != nil {
						t.Fatal(err)
					}
					hl, err := lu.Eval(complex(0, w))
					if err != nil {
						t.Fatal(err)
					}
					if e := maxAbsDiff(hs, hl) / hl.MaxAbs(); e > 1e-10 {
						t.Errorf("ω=%g: ROMs differ by %.3e relative", w, e)
					}
				}
			})
		}
	}
}
