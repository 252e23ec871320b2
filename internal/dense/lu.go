package dense

import (
	"errors"
	"fmt"

	"repro/internal/sparse"
)

// ErrSingular is returned when a dense factorization or solve encounters a
// numerically singular matrix.
var ErrSingular = errors.New("dense: matrix is numerically singular")

// LU is a dense LU factorization with partial pivoting: P·A = L·U.
type LU[T sparse.Scalar] struct {
	lu   *Mat[T] // packed L (unit diagonal, below) and U (on and above)
	piv  []int   // row interchanges: row i was swapped with piv[i]
	sign float64
}

// FactorLU computes the LU factorization of the square matrix a.
func FactorLU[T sparse.Scalar](a *Mat[T]) (*LU[T], error) {
	f := new(LU[T])
	if err := f.Factor(a); err != nil {
		return nil, err
	}
	return f, nil
}

// Factor computes the LU factorization of the square matrix a into f,
// reusing f's storage when a has the size f last factored. After an error f
// holds no usable factorization.
func (f *LU[T]) Factor(a *Mat[T]) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("dense: cannot LU-factor non-square %d×%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	if f.lu == nil || f.lu.Rows != n {
		f.lu, f.piv = NewMat[T](n, n), make([]int, n)
	}
	lu, piv := f.lu, f.piv
	copy(lu.Data, a.Data)
	sign := 1.0
	for k := 0; k < n; k++ {
		// Partial pivot: largest magnitude in column k at or below the diagonal.
		p := k
		maxAbs := sparse.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if av := sparse.Abs(lu.At(i, k)); av > maxAbs {
				maxAbs = av
				p = i
			}
		}
		piv[k] = p
		if maxAbs == 0 {
			return fmt.Errorf("%w: zero pivot at column %d", ErrSingular, k)
		}
		if p != k {
			rk, rp := lu.Row(k), lu.Row(p)
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			sign = -sign
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivot
			lu.Set(i, k, m)
			if sparse.IsZero(m) {
				continue
			}
			ri, rk := lu.Row(i), lu.Row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= m * rk[j]
			}
		}
	}
	f.sign = sign
	return nil
}

// N returns the system dimension.
func (f *LU[T]) N() int { return f.lu.Rows }

// Solve solves A x = b into dst (dst and b may alias).
func (f *LU[T]) Solve(dst, b []T) error {
	n := f.N()
	if len(dst) != n || len(b) != n {
		return fmt.Errorf("dense: LU Solve length mismatch (n=%d)", n)
	}
	if &dst[0] != &b[0] {
		copy(dst, b)
	}
	// Apply row interchanges.
	for k := 0; k < n; k++ {
		if p := f.piv[k]; p != k {
			dst[k], dst[p] = dst[p], dst[k]
		}
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		row := f.lu.Row(i)
		var sum T
		for j := 0; j < i; j++ {
			sum += row[j] * dst[j]
		}
		dst[i] -= sum
	}
	// Back substitution with upper triangle.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Row(i)
		var sum T
		for j := i + 1; j < n; j++ {
			sum += row[j] * dst[j]
		}
		dst[i] = (dst[i] - sum) / row[i]
	}
	return nil
}

// SolveMat solves A X = B and returns X.
func (f *LU[T]) SolveMat(b *Mat[T]) (*Mat[T], error) {
	if b.Rows != f.N() {
		return nil, fmt.Errorf("dense: SolveMat dimension mismatch")
	}
	x := NewMat[T](b.Rows, b.Cols)
	col := make([]T, b.Rows)
	for j := 0; j < b.Cols; j++ {
		for i := 0; i < b.Rows; i++ {
			col[i] = b.At(i, j)
		}
		if err := f.Solve(col, col); err != nil {
			return nil, err
		}
		x.SetCol(j, col)
	}
	return x, nil
}
