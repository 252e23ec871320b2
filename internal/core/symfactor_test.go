package core

import (
	"fmt"
	"testing"

	"repro/internal/grid"
	"repro/internal/krylov"
	"repro/internal/lti"
)

// TestReduceSymmetricFactorMatchesLU reduces every RLC benchmark, with and
// without Ward pre-reduction (whose Schur complement leaves the inductor
// couplings antisymmetric only to roundoff), through the automatic backend
// — the signed Cholesky factor of the quasi-definite pencil — and through
// sparse LU. The factor changes only rounding: the ROMs agree to 1e-10
// relative, the work counts are identical, and the symmetric factor holds
// at most 0.55× LU's nonzeros.
func TestReduceSymmetricFactorMatchesLU(t *testing.T) {
	scales := map[string]float64{grid.Ckt1: 1, grid.Ckt2: 0.25, grid.Ckt3: 0.12, grid.Ckt4: 0.12, grid.Ckt5: 0.04}
	for _, name := range grid.Names() {
		sys := benchmarkSystem(t, name, scales[name], false)
		for _, wardOn := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/ward=%v", name, wardOn), func(t *testing.T) {
				reduce := func(b krylov.Backend) (*lti.BlockDiagSystem, Stats) {
					var st Stats
					rom, err := Reduce(sys, Options{Moments: grid.MatchedMoments(name),
						Backend: b, WardReduce: wardOn, Stats: &st})
					if err != nil {
						t.Fatal(err)
					}
					return rom, st
				}
				sym, ss := reduce(krylov.BackendAuto)
				lu, sl := reduce(krylov.BackendLU)
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
