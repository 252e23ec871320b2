// Package lti defines the linear time-invariant descriptor system types the
// model reduction algorithms operate on, in the paper's sign convention
//
//	C dx/dt = G x + B u,   y = L x,   H(s) = L (sC - G)^{-1} B,
//
// together with transfer-function evaluation, moment computation, and the
// block-diagonal structured reduced-order model produced by BDSM.
package lti

import (
	"fmt"

	"repro/internal/dense"
	"repro/internal/sparse"
)

// System is any realization that can report its dimensions and evaluate its
// transfer matrix at a complex frequency.
type System interface {
	// Dims returns state, input, and output counts (n, m, p).
	Dims() (n, m, p int)
	// Eval returns the p×m transfer matrix H(s).
	Eval(s complex128) (*dense.Mat[complex128], error)
}

// EvalEntry evaluates a single transfer-function entry H[i][j](s) of any
// System. Implementations that can evaluate single columns cheaply satisfy
// columnEvaluator and are used preferentially.
func EvalEntry(sys System, s complex128, i, j int) (complex128, error) {
	_, m, p := sys.Dims()
	if i < 0 || i >= p || j < 0 || j >= m {
		return 0, fmt.Errorf("lti: entry (%d,%d) out of range %d×%d", i, j, p, m)
	}
	if ce, ok := sys.(columnEvaluator); ok {
		col, err := ce.EvalColumn(s, j)
		if err != nil {
			return 0, err
		}
		return col[i], nil
	}
	h, err := sys.Eval(s)
	if err != nil {
		return 0, err
	}
	return h.At(i, j), nil
}

// columnEvaluator is implemented by systems that can evaluate a single
// transfer-matrix column without forming all of H(s).
type columnEvaluator interface {
	EvalColumn(s complex128, j int) ([]complex128, error)
}

// SparseSystem is a large sparse descriptor model, typically produced by MNA
// stamping of a power grid.
type SparseSystem struct {
	C *sparse.CSR[float64] // n×n
	G *sparse.CSR[float64] // n×n
	B *sparse.CSC[float64] // n×m, column access for per-port splitting
	L *sparse.CSR[float64] // p×n, row access for outputs
}

// NewSparseSystem wraps descriptor matrices into a SparseSystem, converting
// B to column storage. Dimension consistency is checked.
func NewSparseSystem(c, g, b, l *sparse.CSR[float64]) (*SparseSystem, error) {
	n, nc := c.Dims()
	gn, gc := g.Dims()
	bn, _ := b.Dims()
	_, lc := l.Dims()
	if n != nc || gn != gc || n != gn {
		return nil, fmt.Errorf("lti: C and G must be square with equal size, got %d×%d and %d×%d", n, nc, gn, gc)
	}
	if bn != n {
		return nil, fmt.Errorf("lti: B has %d rows, want %d", bn, n)
	}
	if lc != n {
		return nil, fmt.Errorf("lti: L has %d cols, want %d", lc, n)
	}
	return &SparseSystem{C: c, G: g, B: b.ToCSC(), L: l}, nil
}

// Dims returns (n, m, p).
func (s *SparseSystem) Dims() (n, m, p int) {
	n, _ = s.C.Dims()
	_, m = s.B.Dims()
	p, _ = s.L.Dims()
	return n, m, p
}

// Pencil returns the real pencil s0·C - G in column format, ready for LU
// factorization at the Krylov expansion point s0.
func (s *SparseSystem) Pencil(s0 float64) *sparse.CSC[float64] {
	return s.C.Add(s0, s.G, -1).ToCSC()
}

// PencilComplex returns the complex pencil s·C - G for frequency-domain
// evaluation at s = jω.
func (s *SparseSystem) PencilComplex(z complex128) *sparse.CSC[complex128] {
	czc := sparse.ToComplex(s.C)
	gzc := sparse.ToComplex(s.G)
	return czc.Add(z, gzc, -1).ToCSC()
}

// ImpedanceView returns the same system with the input matrix negated.
// Power-grid load ports draw current out of their nodes (B = -selection),
// making H(s) = -Z(s); the negated view has H(s) = +Z(s), the immittance
// convention required by passivity analysis (Sec. III-D).
func (s *SparseSystem) ImpedanceView() *SparseSystem {
	b := s.B.Clone()
	for i := range b.Val {
		b.Val[i] = -b.Val[i]
	}
	return &SparseSystem{C: s.C, G: s.G, B: b, L: s.L}
}

// BColumn returns column j of B as a dense vector.
func (s *SparseSystem) BColumn(j int) []float64 {
	n, _ := s.B.Dims()
	col := make([]float64, n)
	for k := s.B.ColPtr[j]; k < s.B.ColPtr[j+1]; k++ {
		col[s.B.RowIdx[k]] = s.B.Val[k]
	}
	return col
}

// ApplyL computes y = L x.
func (s *SparseSystem) ApplyL(x []float64) []float64 {
	p, _ := s.L.Dims()
	y := make([]float64, p)
	s.L.MatVec(y, x)
	return y
}

// Eval computes the full p×m transfer matrix by one sparse complex LU
// factorization and m solves. Cost grows with the port count; use
// EvalColumn for single entries.
func (s *SparseSystem) Eval(z complex128) (*dense.Mat[complex128], error) {
	n, m, p := s.Dims()
	lu, err := sparse.FactorLU(s.PencilComplex(z), sparse.LUOptions{})
	if err != nil {
		return nil, fmt.Errorf("lti: pencil singular at s=%v: %w", z, err)
	}
	h := dense.NewMat[complex128](p, m)
	x := make([]complex128, n)
	lc := sparse.ToComplex(s.L)
	y := make([]complex128, p)
	for j := 0; j < m; j++ {
		sparse.ZeroVec(x)
		for k := s.B.ColPtr[j]; k < s.B.ColPtr[j+1]; k++ {
			x[s.B.RowIdx[k]] = complex(s.B.Val[k], 0)
		}
		if err := lu.Solve(x, x); err != nil {
			return nil, err
		}
		lc.MatVec(y, x)
		h.SetCol(j, y)
	}
	return h, nil
}

// EvalColumn computes column j of H(s) with a single factorization+solve.
func (s *SparseSystem) EvalColumn(z complex128, j int) ([]complex128, error) {
	n, m, p := s.Dims()
	if j < 0 || j >= m {
		return nil, fmt.Errorf("lti: column %d out of range %d", j, m)
	}
	lu, err := sparse.FactorLU(s.PencilComplex(z), sparse.LUOptions{})
	if err != nil {
		return nil, fmt.Errorf("lti: pencil singular at s=%v: %w", z, err)
	}
	x := make([]complex128, n)
	for k := s.B.ColPtr[j]; k < s.B.ColPtr[j+1]; k++ {
		x[s.B.RowIdx[k]] = complex(s.B.Val[k], 0)
	}
	if err := lu.Solve(x, x); err != nil {
		return nil, err
	}
	y := make([]complex128, p)
	sparse.ToComplex(s.L).MatVec(y, x)
	return y, nil
}

// Moments returns the first count moment matrices of H(s) around the real
// expansion point s0:
//
//	M_k = L · ((s0·C - G)⁻¹ C)^k · (s0·C - G)⁻¹ B,  k = 0..count-1,
//
// computed exactly with one sparse factorization (sparse.Factor). These are
// the quantities BDSM and PRIMA match (eq. 5/12 of the paper).
func (s *SparseSystem) Moments(s0 float64, count int) ([]*dense.Mat[float64], error) {
	n, m, p := s.Dims()
	f, err := sparse.Factor(s.C.Add(s0, s.G, -1), sparse.LUOptions{})
	if err != nil {
		return nil, fmt.Errorf("lti: pencil singular at s0=%g: %w", s0, err)
	}
	// R starts as (s0C - G)^{-1} B, iterated through A = (s0C - G)^{-1} C.
	r := make([][]float64, m)
	for j := 0; j < m; j++ {
		r[j] = s.BColumn(j)
	}
	if err := sparse.SolveMany(f, r); err != nil {
		return nil, err
	}
	moments := make([]*dense.Mat[float64], 0, count)
	tmp := make([]float64, n)
	for k := 0; k < count; k++ {
		mk := dense.NewMat[float64](p, m)
		for j := 0; j < m; j++ {
			mk.SetCol(j, s.ApplyL(r[j]))
		}
		moments = append(moments, mk)
		if k == count-1 {
			break
		}
		for j := range r {
			s.C.MatVec(tmp, r[j])
			r[j], tmp = tmp, r[j]
		}
		if err := sparse.SolveMany(f, r); err != nil {
			return nil, err
		}
	}
	return moments, nil
}
