package sim

import (
	"math"
	"testing"

	"repro/internal/dense"
	"repro/internal/lti"
)

// modalTestSystem is a small RC-flavored ROM (symmetric C SPD, symmetric G
// negative definite) that modalizes fully.
func modalTestSystem(t testing.TB) (*lti.BlockDiagSystem, *lti.ModalSystem) {
	t.Helper()
	bd := &lti.BlockDiagSystem{
		M: 2,
		P: 2,
		Blocks: []lti.Block{
			{
				C:     &dense.Mat[float64]{Rows: 2, Cols: 2, Data: []float64{1, 0.2, 0.2, 2}},
				G:     &dense.Mat[float64]{Rows: 2, Cols: 2, Data: []float64{-3, 1, 1, -4}},
				B:     []float64{1, -0.5},
				L:     &dense.Mat[float64]{Rows: 2, Cols: 2, Data: []float64{1, 0, 0.25, 1}},
				Input: 0,
			},
			{
				C:     &dense.Mat[float64]{Rows: 3, Cols: 3, Data: []float64{1.5, 0, 0.1, 0, 1, 0, 0.1, 0, 2}},
				G:     &dense.Mat[float64]{Rows: 3, Cols: 3, Data: []float64{-2, 0.5, 0, 0.5, -3, 0.5, 0, 0.5, -5}},
				B:     []float64{0.5, 1, -1},
				L:     &dense.Mat[float64]{Rows: 2, Cols: 3, Data: []float64{0, 1, 0.5, 1, 0, -0.25}},
				Input: 1,
			},
		},
	}
	ms, err := bd.Modalize()
	if err != nil {
		t.Fatalf("Modalize: %v", err)
	}
	if modal, fb := ms.ModalCount(); fb != 0 || modal != 2 {
		t.Fatalf("test system did not fully modalize (%d modal, %d fallback)", modal, fb)
	}
	return bd, ms
}

// TestSimulateModalExactStep: for a step input (piecewise-linear between
// samples, and constant after the first step), the modal integrator is exact
// at every sample regardless of step size — compare against the analytic
// modal solution z(t) = (e^{λt}−1)/λ·u.
func TestSimulateModalExactStep(t *testing.T) {
	_, ms := modalTestSystem(t)
	opts := TransientOptions{Dt: 0.05, T: 2, Input: UniformInput(DC(1))}
	res, err := SimulateModal(ms, opts)
	if err != nil {
		t.Fatalf("SimulateModal: %v", err)
	}
	for k, tm := range res.T {
		want := make([]float64, 2)
		for i := range ms.Blocks {
			mb := &ms.Blocks[i]
			for j, lam := range mb.Poles {
				l := real(lam) // symmetric path: poles are real
				z := (math.Exp(l*tm) - 1) / l
				row := mb.R.Row(j)
				for r := range want {
					want[r] += real(row[r]) * z
				}
			}
		}
		for r := range want {
			if d := math.Abs(res.Y[k][r] - want[r]); d > 1e-12*(1+math.Abs(want[r])) {
				t.Fatalf("t=%g output %d: modal %g vs analytic %g (Δ=%g)", tm, r, res.Y[k][r], want[r], d)
			}
		}
	}
}

// TestSimulateModalMatchesImplicit: on a smooth sine drive the trapezoidal
// integrator at a fine step must converge to the modal-exact result at a
// coarse step — the modal integrator is the reference, not the approximation.
func TestSimulateModalMatchesImplicit(t *testing.T) {
	bd, ms := modalTestSystem(t)
	input := UniformInput(Sine{Amplitude: 1, Freq: 0.5})
	modal, err := SimulateModal(ms, TransientOptions{Dt: 0.01, T: 2, Input: input})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := SimulateBlockDiag(bd, TransientOptions{Method: Trapezoidal, Dt: 0.0005, T: 2, Input: input})
	if err != nil {
		t.Fatal(err)
	}
	// Compare at the coarse samples (every 20th fine sample).
	var maxErr, scale float64
	for k, tm := range modal.T {
		fk := k * 20
		if fk >= len(fine.T) {
			break
		}
		if math.Abs(fine.T[fk]-tm) > 1e-12 {
			t.Fatalf("sample mismatch: %g vs %g", fine.T[fk], tm)
		}
		for r := range modal.Y[k] {
			if d := math.Abs(modal.Y[k][r] - fine.Y[fk][r]); d > maxErr {
				maxErr = d
			}
			if a := math.Abs(fine.Y[fk][r]); a > scale {
				scale = a
			}
		}
	}
	// The sine is sampled piecewise-linearly at Dt=0.01 (relative chord
	// error ~(ωh)²/8 ≈ 1e-6); the fine trapezoidal run resolves the same
	// drive much more finely, so agreement is bounded by the coarse
	// sampling, not the integrators.
	if maxErr > 1e-4*scale {
		t.Fatalf("modal vs fine trapezoidal max error %g (scale %g)", maxErr, scale)
	}
}

// TestSimulateModalMixedFallback: a system with one modal and one
// non-diagonalizable block must integrate the fallback block implicitly and
// still converge to the all-implicit reference.
func TestSimulateModalMixedFallback(t *testing.T) {
	bd := &lti.BlockDiagSystem{
		M: 2,
		P: 1,
		Blocks: []lti.Block{
			{
				C:     &dense.Mat[float64]{Rows: 1, Cols: 1, Data: []float64{1}},
				G:     &dense.Mat[float64]{Rows: 1, Cols: 1, Data: []float64{-2}},
				B:     []float64{1},
				L:     &dense.Mat[float64]{Rows: 1, Cols: 1, Data: []float64{1}},
				Input: 0,
			},
			{
				// Jordan block: stays on the implicit fallback.
				C:     dense.Eye[float64](3),
				G:     &dense.Mat[float64]{Rows: 3, Cols: 3, Data: []float64{-1, 1, 0, 0, -1, 1, 0, 0, -1}},
				B:     []float64{0, 0, 1},
				L:     &dense.Mat[float64]{Rows: 1, Cols: 3, Data: []float64{1, 0, 0}},
				Input: 1,
			},
		},
	}
	ms, err := bd.Modalize()
	if err != nil {
		t.Fatal(err)
	}
	if modal, fb := ms.ModalCount(); modal != 1 || fb != 1 {
		t.Fatalf("ModalCount = (%d, %d), want (1, 1)", modal, fb)
	}
	input := UniformInput(Step{Amplitude: 1, Delay: 0.1})
	h := 0.002
	mixed, err := SimulateModal(ms, TransientOptions{Method: Trapezoidal, Dt: h, T: 1, Input: input})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := SimulateBlockDiag(bd, TransientOptions{Method: Trapezoidal, Dt: h, T: 1, Input: input})
	if err != nil {
		t.Fatal(err)
	}
	var maxErr, scale float64
	for k := range mixed.T {
		for r := range mixed.Y[k] {
			if d := math.Abs(mixed.Y[k][r] - ref.Y[k][r]); d > maxErr {
				maxErr = d
			}
			if a := math.Abs(ref.Y[k][r]); a > scale {
				scale = a
			}
		}
	}
	// The fallback block integrates identically; the modal block differs
	// from trapezoidal by its O(h²) local error.
	if maxErr > 1e-4*scale {
		t.Fatalf("mixed vs implicit max error %g (scale %g)", maxErr, scale)
	}
}
