// Package passivity implements the application-issues machinery of
// Sec. III-D of the paper: conversion of descriptor ROM blocks to standard
// state space, per-block eigenvalue diagonalization (eq. 16), and sampled
// passivity verification for immittance reduced models.
//
// Thanks to the block-diagonal structure of BDSM ROMs, every step here costs
// O(l³) per block rather than O(q³) on the assembled model.
package passivity

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dense"
	"repro/internal/lti"
)

// StandardSystem is a standard state-space model x' = Ax + Bu, y = Cx + Du.
type StandardSystem struct {
	A *dense.Mat[float64]
	B *dense.Mat[float64]
	C *dense.Mat[float64]
	D *dense.Mat[float64] // may be nil (zero direct term)
}

// Dims returns (n, m, p).
func (s *StandardSystem) Dims() (n, m, p int) { return s.A.Rows, s.B.Cols, s.C.Rows }

// Eval computes H(s) = C (sI - A)⁻¹ B + D.
func (s *StandardSystem) Eval(z complex128) (*dense.Mat[complex128], error) {
	n, _, _ := s.Dims()
	pencil := dense.Eye[complex128](n).Scale(z).Sub(dense.ToComplex(s.A))
	f, err := dense.FactorLU(pencil)
	if err != nil {
		return nil, fmt.Errorf("passivity: sI-A singular at s=%v: %w", z, err)
	}
	x, err := f.SolveMat(dense.ToComplex(s.B))
	if err != nil {
		return nil, err
	}
	h := dense.ToComplex(s.C).Mul(x)
	if s.D != nil {
		h = h.Add(dense.ToComplex(s.D))
	}
	return h, nil
}

var _ lti.System = (*StandardSystem)(nil)

// ToStandard converts a descriptor ROM (Cr, Gr, Br, Lr) with invertible Cr
// into standard form: A = Cr⁻¹Gr, B = Cr⁻¹Br, C = Lr. Cost O(q³) on an
// assembled ROM; one BDSM block, as a DenseSystem of its own, costs O(l³).
func ToStandard(d *lti.DenseSystem) (*StandardSystem, error) {
	f, err := dense.FactorLU(d.C)
	if err != nil {
		return nil, fmt.Errorf("passivity: descriptor C singular (not an ODE realization): %w", err)
	}
	a, err := f.SolveMat(d.G)
	if err != nil {
		return nil, err
	}
	b, err := f.SolveMat(d.B)
	if err != nil {
		return nil, err
	}
	return &StandardSystem{A: a, B: b, C: d.L.Clone()}, nil
}

// DiagonalRealization is the eigen-decomposed form of eq. 16: a complex
// diagonal system (I, Λ, B̃, C̃) equivalent to the standard system it was
// derived from. Poles are directly visible on the diagonal.
type DiagonalRealization struct {
	Poles []complex128           // Λ diagonal
	B     *dense.Mat[complex128] // X⁻¹·B
	C     *dense.Mat[complex128] // C·X
}

// Diagonalize eigendecomposes A = XΛX⁻¹ and transforms the realization
// (eq. 16 of the paper). Fails on defective A (repeated eigenvalues without
// full eigenspace), which does not occur for generic RLC reductions.
func Diagonalize(s *StandardSystem) (*DiagonalRealization, error) {
	vals, vecs, err := dense.Eig(s.A)
	if err != nil {
		return nil, fmt.Errorf("passivity: eigendecomposition failed: %w", err)
	}
	xinv, err := dense.FactorLU(vecs.Clone())
	if err != nil {
		return nil, errors.New("passivity: defective A; eigenvector matrix singular")
	}
	bt, err := xinv.SolveMat(dense.ToComplex(s.B))
	if err != nil {
		return nil, err
	}
	ct := dense.ToComplex(s.C).Mul(vecs)
	return &DiagonalRealization{Poles: vals, B: bt, C: ct}, nil
}

// Eval computes H(s) = Σ c̃ᵢ b̃ᵢ / (s - λᵢ) for the diagonal realization.
func (d *DiagonalRealization) Eval(z complex128) *dense.Mat[complex128] {
	p := d.C.Rows
	m := d.B.Cols
	h := dense.NewMat[complex128](p, m)
	for k, pole := range d.Poles {
		den := z - pole
		for i := 0; i < p; i++ {
			ci := d.C.At(i, k)
			if ci == 0 {
				continue
			}
			for j := 0; j < m; j++ {
				h.Set(i, j, h.At(i, j)+ci*d.B.At(k, j)/den)
			}
		}
	}
	return h
}

// Stable reports whether every pole has negative real part.
func (d *DiagonalRealization) Stable() bool {
	for _, p := range d.Poles {
		if real(p) >= 0 {
			return false
		}
	}
	return true
}

// Report is the result of a passivity check of a square (immittance) ROM.
type Report struct {
	// Stable indicates all poles are in the open left half plane.
	Stable bool
	// Passive indicates λmin(H(jω) + H(jω)ᴴ) ≥ -Tol at every sample.
	Passive bool
	// WorstFrequency and WorstEig locate the most negative Popov eigenvalue.
	WorstFrequency float64
	WorstEig       float64
}

// CheckOptions configures passivity verification.
type CheckOptions struct {
	// WMin, WMax bound the sampled band in rad/s. Defaults 1e5, 1e15.
	WMin, WMax float64
	// Samples is the number of log-spaced samples. Default 200.
	Samples int
	// Tol is the negative-eigenvalue tolerance. Default 1e-10 times the
	// largest sampled Popov eigenvalue magnitude.
	Tol float64
}

func (o *CheckOptions) defaults() {
	if o.WMin <= 0 {
		o.WMin = 1e5
	}
	if o.WMax <= o.WMin {
		o.WMax = 1e15
	}
	if o.Samples <= 0 {
		o.Samples = 200
	}
}

// Check verifies stability and sampled passivity of any square-transfer
// system (p = m), e.g. a power-grid impedance ROM with L = Bᵀ selection.
func Check(sys lti.System, poles []complex128, opts CheckOptions) (*Report, error) {
	opts.defaults()
	_, m, p := sys.Dims()
	if m != p {
		return nil, fmt.Errorf("passivity: transfer matrix must be square, got %d×%d", p, m)
	}
	rep := &Report{Stable: true, Passive: true, WorstEig: math.Inf(1)}
	for _, pole := range poles {
		if real(pole) >= 0 {
			rep.Stable = false
		}
	}
	maxMag := 0.0
	type sample struct {
		w   float64
		min float64
	}
	samples := make([]sample, 0, opts.Samples)
	lw0, lw1 := math.Log10(opts.WMin), math.Log10(opts.WMax)
	for k := 0; k < opts.Samples; k++ {
		w := math.Pow(10, lw0+(lw1-lw0)*float64(k)/float64(opts.Samples-1))
		h, err := sys.Eval(complex(0, w))
		if err != nil {
			return nil, err
		}
		// Popov function Φ = H + Hᴴ is Hermitian; its eigenvalues are real.
		phi := h.Add(h.H())
		minEig, magEig, err := hermitianEigRange(phi)
		if err != nil {
			return nil, err
		}
		if magEig > maxMag {
			maxMag = magEig
		}
		samples = append(samples, sample{w, minEig})
	}
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-10 * maxMag
	}
	for _, s := range samples {
		if s.min < rep.WorstEig {
			rep.WorstEig = s.min
			rep.WorstFrequency = s.w
		}
		if s.min < -tol {
			rep.Passive = false
		}
	}
	if !rep.Stable {
		rep.Passive = false
	}
	return rep, nil
}

// hermitianEigRange returns the smallest eigenvalue and largest magnitude
// eigenvalue of a Hermitian complex matrix via its real symmetric embedding
// [Re -Im; Im Re] (eigenvalues appear twice).
func hermitianEigRange(h *dense.Mat[complex128]) (minEig, maxMag float64, err error) {
	n := h.Rows
	e := dense.NewMat[float64](2*n, 2*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			re, im := real(h.At(i, j)), imag(h.At(i, j))
			e.Set(i, j, re)
			e.Set(i+n, j+n, re)
			e.Set(i+n, j, im)
			e.Set(i, j+n, -im)
		}
	}
	vals, _, err := dense.EigSym(e)
	if err != nil {
		return 0, 0, err
	}
	minEig = vals[0]
	maxMag = math.Max(math.Abs(vals[0]), math.Abs(vals[len(vals)-1]))
	return minEig, maxMag, nil
}
