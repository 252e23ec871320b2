package lti

import (
	"fmt"

	"repro/internal/dense"
	"repro/internal/sparse"
)

// DenseSystem is a small descriptor model with dense matrices — the natural
// container for PRIMA-style reduced-order models.
type DenseSystem struct {
	C *dense.Mat[float64] // q×q
	G *dense.Mat[float64] // q×q
	B *dense.Mat[float64] // q×m
	L *dense.Mat[float64] // p×q
}

// NewDenseSystem wraps dense descriptor matrices after checking dimensions.
func NewDenseSystem(c, g, b, l *dense.Mat[float64]) (*DenseSystem, error) {
	q := c.Rows
	if c.Cols != q || g.Rows != q || g.Cols != q {
		return nil, fmt.Errorf("lti: C and G must be square of equal size")
	}
	if b.Rows != q {
		return nil, fmt.Errorf("lti: B has %d rows, want %d", b.Rows, q)
	}
	if l.Cols != q {
		return nil, fmt.Errorf("lti: L has %d cols, want %d", l.Cols, q)
	}
	return &DenseSystem{C: c, G: g, B: b, L: l}, nil
}

// Dims returns (q, m, p).
func (d *DenseSystem) Dims() (n, m, p int) { return d.C.Rows, d.B.Cols, d.L.Rows }

// Eval computes H(s) = L (sC - G)^{-1} B by one dense complex factorization.
func (d *DenseSystem) Eval(s complex128) (*dense.Mat[complex128], error) {
	cz := dense.ToComplex(d.C)
	gz := dense.ToComplex(d.G)
	pencil := cz.Scale(s).Sub(gz)
	f, err := dense.FactorLU(pencil)
	if err != nil {
		return nil, fmt.Errorf("lti: dense pencil singular at s=%v: %w", s, err)
	}
	x, err := f.SolveMat(dense.ToComplex(d.B))
	if err != nil {
		return nil, err
	}
	return dense.ToComplex(d.L).Mul(x), nil
}

// Moments returns the first count moment matrices around real s0, the dense
// analogue of SparseSystem.Moments.
func (d *DenseSystem) Moments(s0 float64, count int) ([]*dense.Mat[float64], error) {
	pencil := d.C.Clone().Scale(s0).Sub(d.G)
	f, err := dense.FactorLU(pencil)
	if err != nil {
		return nil, fmt.Errorf("lti: dense pencil singular at s0=%g: %w", s0, err)
	}
	r, err := f.SolveMat(d.B)
	if err != nil {
		return nil, err
	}
	moments := make([]*dense.Mat[float64], 0, count)
	for k := 0; k < count; k++ {
		moments = append(moments, d.L.Mul(r))
		if k == count-1 {
			break
		}
		r, err = f.SolveMat(d.C.Mul(r))
		if err != nil {
			return nil, err
		}
	}
	return moments, nil
}

// NNZ reports the nonzero counts of the four system matrices, used for the
// ROM structure comparison of Fig. 4.
func (d *DenseSystem) NNZ() (c, g, b, l int) {
	return d.C.NNZ(), d.G.NNZ(), d.B.NNZ(), d.L.NNZ()
}

// Simulatable exposes the pieces the transient simulator needs; both dense
// and block-diagonal ROMs satisfy it.
type Simulatable interface {
	System
	// ApplyInput computes dst = B·u.
	ApplyInput(dst, u []float64)
	// ApplyOutput computes y = L·x.
	ApplyOutput(x []float64) []float64
}

// ApplyInput computes dst = B·u.
func (d *DenseSystem) ApplyInput(dst, u []float64) {
	if len(dst) != d.B.Rows || len(u) != d.B.Cols {
		panic("lti: ApplyInput dimension mismatch")
	}
	for i := 0; i < d.B.Rows; i++ {
		dst[i] = sparse.Dot(d.B.Row(i), u)
	}
}

// ApplyOutput computes y = L·x.
func (d *DenseSystem) ApplyOutput(x []float64) []float64 {
	return d.L.MulVec(x)
}
