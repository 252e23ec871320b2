package sim

import (
	"math/cmplx"

	"repro/internal/lti"
)

// modalBlockState integrates one diagonalized block exactly: each modal
// coordinate obeys żₖ = λₖ·zₖ + u(t) (the input weight is folded into the
// residue rows), which for input linear on a step [t, t+h] has the closed
// form
//
//	zₖ(t+h) = e^{λₖh}·zₖ(t) + u(t)·(φ₁ₖ−φ₂ₖ) + u(t+h)·φ₂ₖ
//	φ₁ = (e^{λh}−1)/λ,   φ₂ = (e^{λh}−1−λh)/(λ²h)
//
// — no pencil factorization and no linear solve per step, and exact (not
// O(h)-accurate) for piecewise-linear drives. Outputs are y += Re(Σₖ Rₖ·zₖ)
// plus the direct term D·u(t); the imaginary parts cancel across conjugate
// pole pairs and are discarded.
type modalBlockState struct {
	z          []complex128 // modal coordinates
	expLH      []complex128 // e^{λₖh}
	fNow, fNxt []complex128 // φ₁−φ₂ and φ₂ per mode
	mb         *lti.ModalBlock
	input      int
}

// phi12 evaluates φ₁ and φ₂ at x = λh, switching to series near x = 0 where
// the closed forms cancel catastrophically.
func phi12(x complex128, h float64) (phi1, phi2 complex128) {
	if cmplx.Abs(x) < 1e-4 {
		// φ₁/h = 1 + x/2 + x²/6 + x³/24, φ₂/h = 1/2 + x/6 + x²/24 + x³/120.
		hx := complex(h, 0)
		phi1 = hx * (1 + x/2 + x*x/6 + x*x*x/24)
		phi2 = hx * (0.5 + x/6 + x*x/24 + x*x*x/120)
		return phi1, phi2
	}
	e := cmplx.Exp(x)
	phi1 = (e - 1) / x * complex(h, 0)
	phi2 = (e - 1 - x) / (x * x) * complex(h, 0)
	return phi1, phi2
}

func newModalBlockState(mb *lti.ModalBlock, h float64) *modalBlockState {
	q := len(mb.Poles)
	st := &modalBlockState{
		z:     make([]complex128, q),
		expLH: make([]complex128, q),
		fNow:  make([]complex128, q),
		fNxt:  make([]complex128, q),
		mb:    mb,
		input: mb.Input,
	}
	for k, lam := range mb.Poles {
		x := lam * complex(h, 0)
		st.expLH[k] = cmplx.Exp(x)
		phi1, phi2 := phi12(x, h)
		st.fNow[k] = phi1 - phi2
		st.fNxt[k] = phi2
	}
	return st
}

// step advances the block one exact step with endpoint inputs u0, u1.
func (st *modalBlockState) step(u0, u1 float64) {
	cu0, cu1 := complex(u0, 0), complex(u1, 0)
	for k := range st.z {
		st.z[k] = st.expLH[k]*st.z[k] + cu0*st.fNow[k] + cu1*st.fNxt[k]
	}
}

// addOutput accumulates y += Re(Σₖ Rₖ·zₖ + D·u).
func (st *modalBlockState) addOutput(y []float64, u float64) {
	modalAccum(y, st.z, st.mb.R.Data)
	if st.mb.D != nil && u != 0 {
		for r := range y {
			y[r] += real(st.mb.D[r]) * u
		}
	}
}

// SimulateModal integrates a modal-form ROM. Modal blocks advance by exact
// per-mode exponentials (factorization-free, exact for piecewise-linear
// inputs); blocks without a modal form fall back to the implicit rule
// selected by opts.Method, exactly as SimulateBlockDiag steps them.
func SimulateModal(ms *lti.ModalSystem, opts TransientOptions) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	st, err := NewStepper(ms, StepperOptions{Method: opts.Method, Dt: opts.Dt})
	if err != nil {
		return nil, err
	}
	return runStepper(st, opts)
}
