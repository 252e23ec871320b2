package lti

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/dense"
)

// rcBlockDiag builds a small RC-flavored ROM: symmetric positive definite C,
// symmetric negative definite G — the structure a projected RC grid block
// has, which must take the symmetric modal path.
func rcBlockDiag() *BlockDiagSystem {
	return &BlockDiagSystem{
		M: 2,
		P: 2,
		Blocks: []Block{
			{
				C:     &dense.Mat[float64]{Rows: 3, Cols: 3, Data: []float64{2, 0.5, 0, 0.5, 3, 0.25, 0, 0.25, 1.5}},
				G:     &dense.Mat[float64]{Rows: 3, Cols: 3, Data: []float64{-4, 1, 0, 1, -5, 1, 0, 1, -3}},
				B:     []float64{1, 0.5, -0.25},
				L:     &dense.Mat[float64]{Rows: 2, Cols: 3, Data: []float64{1, 0, 0.5, 0, 1, -0.5}},
				Input: 0,
			},
			{
				C:     &dense.Mat[float64]{Rows: 2, Cols: 2, Data: []float64{1, 0.1, 0.1, 2}},
				G:     &dense.Mat[float64]{Rows: 2, Cols: 2, Data: []float64{-2, 0.5, 0.5, -1}},
				B:     []float64{0.75, -1.5},
				L:     &dense.Mat[float64]{Rows: 2, Cols: 2, Data: []float64{0.25, 1, 1, 0}},
				Input: 1,
			},
		},
	}
}

func relColErr(got, want []complex128) float64 {
	var num, den float64
	for i := range want {
		num += sqAbs(got[i] - want[i])
		den += sqAbs(want[i])
	}
	if den == 0 {
		den = 1
	}
	return math.Sqrt(num) / math.Sqrt(den)
}

// checkModalAgrees asserts ModalSystem.Eval matches BlockDiagSystem.Eval to
// tol at every probe frequency.
func checkModalAgrees(t *testing.T, bd *BlockDiagSystem, ms *ModalSystem, omegas []float64, tol float64) {
	t.Helper()
	for _, w := range omegas {
		s := complex(0, w)
		want, err := bd.Eval(s)
		if err != nil {
			t.Fatalf("factored Eval(%v): %v", s, err)
		}
		got, err := ms.Eval(s)
		if err != nil {
			t.Fatalf("modal Eval(%v): %v", s, err)
		}
		var num, den float64
		for i := range want.Data {
			num += sqAbs(got.Data[i] - want.Data[i])
			den += sqAbs(want.Data[i])
		}
		if den == 0 {
			den = 1
		}
		if rel := math.Sqrt(num) / math.Sqrt(den); rel > tol {
			t.Fatalf("ω=%g: modal vs factored relative error %.3e > %.3e", w, rel, tol)
		}
	}
}

func logOmegas(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	llo, lhi := math.Log10(lo), math.Log10(hi)
	for i := range out {
		out[i] = math.Pow(10, llo+(lhi-llo)*float64(i)/float64(n-1))
	}
	return out
}

func TestModalizeSymmetricPath(t *testing.T) {
	bd := rcBlockDiag()
	ms, err := bd.Modalize()
	if err != nil {
		t.Fatalf("Modalize: %v", err)
	}
	modal, fb := ms.ModalCount()
	if fb != 0 || modal != len(bd.Blocks) {
		t.Fatalf("ModalCount = (%d, %d), want all %d blocks modal", modal, fb, len(bd.Blocks))
	}
	for i := range ms.Blocks {
		if !ms.Blocks[i].Sym {
			t.Errorf("block %d: symmetric-definite block did not take the symmetric path", i)
		}
		for _, lam := range ms.Blocks[i].Poles {
			if imag(lam) != 0 {
				t.Errorf("block %d: symmetric path produced complex pole %v", i, lam)
			}
			if real(lam) >= 0 {
				t.Errorf("block %d: dissipative block produced non-negative pole %v", i, lam)
			}
		}
	}
	checkModalAgrees(t, bd, ms, logOmegas(1e-3, 1e3, 41), 1e-12)
}

// TestModalizeGeneralPath covers the golden ROM from io_test: its blocks are
// deliberately non-symmetric (and block 1 has a symmetric G but non-symmetric
// C), so they must take the general diagonalization route — and still agree
// with the LU evaluation to well below the system-level 1e-9 bound.
func TestModalizeGeneralPath(t *testing.T) {
	bd := goldenBlockDiag()
	ms, err := bd.Modalize()
	if err != nil {
		t.Fatalf("Modalize: %v", err)
	}
	modal, fb := ms.ModalCount()
	if modal == 0 {
		t.Fatalf("no block took the general modal path (fallbacks: %d)", fb)
	}
	checkModalAgrees(t, bd, ms, logOmegas(1e-2, 1e4, 41), 1e-9)
}

// TestModalizeFallback hands Modalize a defective block — a Jordan-type
// pencil that no similarity transform diagonalizes accurately — and expects
// the block to be kept on the LU fallback while evaluation stays correct.
func TestModalizeFallback(t *testing.T) {
	bd := &BlockDiagSystem{
		M: 1,
		P: 1,
		Blocks: []Block{{
			// C = I, G a 3×3 Jordan block: eigenvector matrix is rank 1, so
			// the general path's diagonalization must fail its self-check.
			C:     dense.Eye[float64](3),
			G:     &dense.Mat[float64]{Rows: 3, Cols: 3, Data: []float64{-1, 1, 0, 0, -1, 1, 0, 0, -1}},
			B:     []float64{0, 0, 1},
			L:     &dense.Mat[float64]{Rows: 1, Cols: 3, Data: []float64{1, 0, 0}},
			Input: 0,
		}},
	}
	ms, err := bd.Modalize()
	if err != nil {
		t.Fatalf("Modalize: %v", err)
	}
	if _, fb := ms.ModalCount(); fb != 1 {
		t.Fatalf("defective block was not demoted to the LU fallback")
	}
	checkModalAgrees(t, bd, ms, logOmegas(1e-2, 1e2, 21), 1e-12)
}

// TestModalDirectTerm exercises a singular-C block (a mode at infinity): the
// transfer function then has a nonzero limit at s→∞ which the modal form
// must carry as a direct term.
func TestModalDirectTerm(t *testing.T) {
	bd := &BlockDiagSystem{
		M: 1,
		P: 1,
		Blocks: []Block{{
			// Second state has no dynamics: C = diag(1, 0). The pencil
			// sC−G is regular (G invertible), so LU evaluation works and
			// H(∞) = 0.5 ≠ 0.
			C:     &dense.Mat[float64]{Rows: 2, Cols: 2, Data: []float64{1, 0, 0, 0}},
			G:     &dense.Mat[float64]{Rows: 2, Cols: 2, Data: []float64{-1, 0.5, 0.25, -2}},
			B:     []float64{1, 1},
			L:     &dense.Mat[float64]{Rows: 1, Cols: 2, Data: []float64{1, 1}},
			Input: 0,
		}},
	}
	ms, err := bd.Modalize()
	if err != nil {
		t.Fatalf("Modalize: %v", err)
	}
	if modal, _ := ms.ModalCount(); modal != 1 {
		t.Fatalf("singular-C block did not modalize")
	}
	if ms.Blocks[0].D == nil {
		t.Fatalf("singular-C block has no direct term")
	}
	checkModalAgrees(t, bd, ms, logOmegas(1e-3, 1e6, 41), 1e-11)
	// The direct term must match the s→∞ limit of the LU evaluation.
	far, err := bd.Eval(complex(0, 1e12))
	if err != nil {
		t.Fatal(err)
	}
	if d := cmplx.Abs(ms.Blocks[0].D[0] - far.At(0, 0)); d > 1e-9 {
		t.Fatalf("direct term %v far from high-frequency limit %v (|Δ| = %g)", ms.Blocks[0].D[0], far.At(0, 0), d)
	}
}

// TestModalSweepEntryMatchesEval pins the vectorized sweep against
// point-by-point evaluation.
func TestModalSweepEntryMatchesEval(t *testing.T) {
	bd := rcBlockDiag()
	ms, err := bd.Modalize()
	if err != nil {
		t.Fatal(err)
	}
	omegas := logOmegas(1e-2, 1e2, 33)
	sweep := make([]complex128, len(omegas))
	for row := 0; row < bd.P; row++ {
		for col := 0; col < bd.M; col++ {
			if err := ms.SweepEntryInto(sweep, row, col, omegas); err != nil {
				t.Fatal(err)
			}
			for k, w := range omegas {
				want, err := ms.EvalColumn(complex(0, w), col)
				if err != nil {
					t.Fatal(err)
				}
				if d := cmplx.Abs(sweep[k] - want[row]); d > 1e-13*(1+cmplx.Abs(want[row])) {
					t.Fatalf("entry (%d,%d) ω=%g: sweep %v vs eval %v", row, col, w, sweep[k], want[row])
				}
			}
		}
	}
}

// TestModalEvalColumnIntoAllocs verifies the headline property: a modal
// column evaluation performs zero allocations.
//
//pgmor:alloctest ModalSystem.EvalColumnInto
//pgmor:alloctest ModalBlock.accumulateColumn
func TestModalEvalColumnIntoAllocs(t *testing.T) {
	bd := rcBlockDiag()
	ms, err := bd.Modalize()
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]complex128, bd.P)
	allocs := testing.AllocsPerRun(100, func() {
		if err := ms.EvalColumnInto(dst, complex(0, 3), 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("modal EvalColumnInto allocates %.1f times per call, want 0", allocs)
	}
}
