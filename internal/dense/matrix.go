// Package dense implements the dense linear algebra kernel used by the
// model reduction library: generic real/complex matrices, LU factorization,
// modified Gram–Schmidt orthonormalization with deflation,
// eigenvalue decompositions (symmetric Jacobi and complex QR iteration on a
// Hessenberg form), and a one-sided Jacobi SVD.
//
// Reduced-order models are small (q = m·l in the hundreds), so clarity and
// numerical robustness are preferred over blocking and cache tricks.
package dense

import (
	"fmt"

	"repro/internal/sparse"
)

// Mat is a dense row-major matrix over float64 or complex128.
type Mat[T sparse.Scalar] struct {
	Rows, Cols int
	Data       []T // len Rows*Cols, element (i,j) at Data[i*Cols+j]
}

// NewMat returns a zero-initialized rows×cols matrix.
func NewMat[T sparse.Scalar](rows, cols int) *Mat[T] {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("dense: negative dimensions %d×%d", rows, cols))
	}
	return &Mat[T]{Rows: rows, Cols: cols, Data: make([]T, rows*cols)}
}

// Eye returns the n×n identity.
func Eye[T sparse.Scalar](n int) *Mat[T] {
	m := NewMat[T](n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, sparse.FromFloat[T](1))
	}
	return m
}

// FromRows builds a matrix from row slices (copied).
func FromRows[T sparse.Scalar](rows [][]T) *Mat[T] {
	if len(rows) == 0 {
		return NewMat[T](0, 0)
	}
	m := NewMat[T](len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("dense: ragged rows")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns element (i, j).
func (m *Mat[T]) At(i, j int) T { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat[T]) Set(i, j int, v T) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (not a copy).
func (m *Mat[T]) Row(i int) []T { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Col returns a copy of column j.
func (m *Mat[T]) Col(j int) []T {
	c := make([]T, m.Rows)
	for i := range c {
		c[i] = m.Data[i*m.Cols+j]
	}
	return c
}

// SetCol assigns column j from x.
func (m *Mat[T]) SetCol(j int, x []T) {
	if len(x) != m.Rows {
		panic("dense: SetCol length mismatch")
	}
	for i := range x {
		m.Data[i*m.Cols+j] = x[i]
	}
}

// Clone returns a deep copy.
func (m *Mat[T]) Clone() *Mat[T] {
	return &Mat[T]{Rows: m.Rows, Cols: m.Cols, Data: append([]T(nil), m.Data...)}
}

// T returns the transpose as a new matrix (no conjugation).
func (m *Mat[T]) T() *Mat[T] {
	t := NewMat[T](m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// H returns the conjugate transpose as a new matrix.
func (m *Mat[T]) H() *Mat[T] {
	t := NewMat[T](m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = sparse.Conj(m.Data[i*m.Cols+j])
		}
	}
	return t
}

// Mul returns a*b.
func (a *Mat[T]) Mul(b *Mat[T]) *Mat[T] {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("dense: Mul dimension mismatch %d×%d · %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := NewMat[T](a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for k, av := range arow {
			if sparse.IsZero(av) {
				continue
			}
			brow := b.Row(k)
			for j := range crow {
				crow[j] += av * brow[j]
			}
		}
	}
	return c
}

// MulVec returns A*x.
func (a *Mat[T]) MulVec(x []T) []T {
	if len(x) != a.Cols {
		panic("dense: MulVec dimension mismatch")
	}
	y := make([]T, a.Rows)
	for i := 0; i < a.Rows; i++ {
		y[i] = sparse.Dot(a.Row(i), x)
	}
	return y
}

// Add returns a + b.
func (a *Mat[T]) Add(b *Mat[T]) *Mat[T] {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("dense: Add dimension mismatch")
	}
	c := a.Clone()
	for i := range c.Data {
		c.Data[i] += b.Data[i]
	}
	return c
}

// Sub returns a - b.
func (a *Mat[T]) Sub(b *Mat[T]) *Mat[T] {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("dense: Sub dimension mismatch")
	}
	c := a.Clone()
	for i := range c.Data {
		c.Data[i] -= b.Data[i]
	}
	return c
}

// Scale multiplies all elements by alpha in place and returns the receiver.
func (m *Mat[T]) Scale(alpha T) *Mat[T] {
	for i := range m.Data {
		m.Data[i] *= alpha
	}
	return m
}

// MaxAbs returns the largest absolute element value (0 for empty matrices).
func (m *Mat[T]) MaxAbs() float64 {
	return sparse.InfNorm(m.Data)
}

// NNZ returns the number of exactly nonzero elements — used to measure ROM
// sparsity structure (Fig. 4 of the paper).
func (m *Mat[T]) NNZ() int {
	n := 0
	for _, v := range m.Data {
		if !sparse.IsZero(v) {
			n++
		}
	}
	return n
}

// ToComplex widens a real matrix to complex128.
func ToComplex(m *Mat[float64]) *Mat[complex128] {
	z := NewMat[complex128](m.Rows, m.Cols)
	for i, v := range m.Data {
		z.Data[i] = complex(v, 0)
	}
	return z
}
