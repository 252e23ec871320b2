package baseline

import (
	"fmt"
	"time"

	"repro/internal/dense"
	"repro/internal/krylov"
	"repro/internal/lti"
	"repro/internal/sparse"
)

// EKSROM is the reduced model produced by the extended Krylov subspace
// method of Wang & Nguyen (DAC 2000). It is a single-input system capturing
// moments of the response y(s) = H(s)·u₀(s) under the predefined excitation
// pattern u₀ — not moments of H(s) itself — and is therefore NOT reusable
// under different input patterns (Table I). The paper's experiments excite
// all ports with unit impulses, which this implementation reproduces.
type EKSROM struct {
	// Inner is the reduced single-input descriptor system with input vector
	// B·u₀ projected onto the Krylov basis.
	Inner *lti.DenseSystem
	// U0 is the excitation pattern baked into the ROM.
	U0 []float64
}

// Dims reports the ROM as an m-input system for interface compatibility;
// internally every input column is approximated by the same baked-in
// response (weighted by the corresponding entry of U0), which is exactly
// the EKS limitation the paper demonstrates in Fig. 5.
func (e *EKSROM) Dims() (n, m, p int) {
	q, _, pp := e.Inner.Dims()
	return q, len(e.U0), pp
}

// Order returns the reduced state dimension.
func (e *EKSROM) Order() int { q, _, _ := e.Inner.Dims(); return q }

// ResponseEval returns Y(s) = Lr (sCr - Gr)⁻¹ br — the ROM's approximation
// of the full response under the baked-in excitation.
func (e *EKSROM) ResponseEval(s complex128) ([]complex128, error) {
	h, err := e.Inner.Eval(s)
	if err != nil {
		return nil, err
	}
	_, _, p := e.Dims()
	y := make([]complex128, p)
	for i := 0; i < p; i++ {
		y[i] = h.At(i, 0)
	}
	return y, nil
}

// Eval approximates the transfer matrix from the single baked-in response
// as the minimum-norm rank-one reconstruction H ≈ y(s)·u₀ᵀ/(u₀ᵀu₀): the
// smallest H consistent with the observed response. It is exact when the
// system is excited by exactly u₀ and generally far off otherwise — the EKS
// limitation the Fig. 5 comparison demonstrates.
func (e *EKSROM) Eval(s complex128) (*dense.Mat[complex128], error) {
	y, err := e.ResponseEval(s)
	if err != nil {
		return nil, err
	}
	_, m, p := e.Dims()
	norm2 := 0.0
	for _, v := range e.U0 {
		norm2 += v * v
	}
	h := dense.NewMat[complex128](p, m)
	if norm2 == 0 {
		return h, nil
	}
	for j := 0; j < m; j++ {
		if e.U0[j] == 0 {
			continue
		}
		w := complex(e.U0[j]/norm2, 0)
		for i := 0; i < p; i++ {
			h.Set(i, j, y[i]*w)
		}
	}
	return h, nil
}

var _ lti.System = (*EKSROM)(nil)

// EKS reduces the system for the fixed excitation pattern u0 (nil means all
// ports excited by unit impulses, as in the paper's experimental setup). The
// Krylov subspace is built on the combined input vector b = B·u0, so the
// ROM order equals the number of matched response moments — far smaller than
// PRIMA's m·l, and far less informative.
func EKS(sys *lti.SparseSystem, u0 []float64, opts Options) (*EKSROM, error) {
	opts.defaults()
	n, m, _ := sys.Dims()
	if u0 == nil {
		u0 = make([]float64, m)
		for i := range u0 {
			u0[i] = 1
		}
	}
	if len(u0) != m {
		return nil, fmt.Errorf("baseline: EKS excitation has %d entries, want %d", len(u0), m)
	}
	tf := time.Now()
	op, err := krylov.NewOperator(sys, opts.S0, krylov.OperatorOptions{
		Backend: opts.Backend, Iter: opts.Iter,
	})
	if err != nil {
		return nil, fmt.Errorf("baseline: EKS: %w", err)
	}
	factorTime := time.Since(tf)

	tr := time.Now()
	// b = B·u0 assembled column-by-column from the sparse input matrix.
	b := make([]float64, n)
	for j := 0; j < m; j++ {
		if u0[j] == 0 {
			continue
		}
		col := sys.BColumn(j)
		sparse.Axpy(b, u0[j], col)
	}
	if err := op.SolvePencil(b, b); err != nil {
		return nil, fmt.Errorf("baseline: EKS start vector: %w", err)
	}
	var ortho *dense.OrthoStats
	if opts.Stats != nil {
		ortho = &opts.Stats.Ortho
	}
	basis, err := krylov.BlockArnoldi(op, [][]float64{b}, opts.Moments, ortho)
	if err != nil {
		return nil, fmt.Errorf("baseline: EKS: %w", err)
	}
	full := krylov.Congruence(sys, basis)
	// Collapse the input side onto the combined vector: br = Vᵀ(B·u0).
	q := basis.Len()
	br := dense.NewMat[float64](q, 1)
	for i := 0; i < q; i++ {
		v := 0.0
		for j := 0; j < m; j++ {
			v += full.B.At(i, j) * u0[j]
		}
		br.Set(i, 0, v)
	}
	inner, err := lti.NewDenseSystem(full.C, full.G, br, full.L)
	if err != nil {
		return nil, err
	}
	if opts.Stats != nil {
		st := opts.Stats
		st.PencilSolves += op.Solves()
		st.FactorNNZ += op.FactorNNZ
		st.FactorTime += factorTime
		st.ReduceTime += time.Since(tr)
		st.BasisColumns += q
		st.PeakBasisBytes = basisBudgetBytes(n, q)
	}
	return &EKSROM{Inner: inner, U0: append([]float64(nil), u0...)}, nil
}
