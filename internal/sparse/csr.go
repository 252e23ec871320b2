package sparse

import "fmt"

// CSR is a compressed sparse row matrix. Row i occupies the half-open range
// [RowPtr[i], RowPtr[i+1]) of ColIdx/Val; column indices within a row are
// strictly increasing.
type CSR[T Scalar] struct {
	rows, cols int
	RowPtr     []int
	ColIdx     []int
	Val        []T
}

// NewCSR assembles a CSR matrix from raw compressed arrays. The arrays are
// used directly (not copied); callers must ensure they satisfy the format
// invariants.
func NewCSR[T Scalar](rows, cols int, rowPtr, colIdx []int, val []T) *CSR[T] {
	if len(rowPtr) != rows+1 {
		panic(fmt.Sprintf("sparse: CSR rowPtr length %d, want %d", len(rowPtr), rows+1))
	}
	if len(colIdx) != len(val) || len(colIdx) != rowPtr[rows] {
		panic("sparse: CSR colIdx/val length mismatch")
	}
	return &CSR[T]{rows: rows, cols: cols, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
}

// Dims returns the matrix dimensions.
func (a *CSR[T]) Dims() (rows, cols int) { return a.rows, a.cols }

// NNZ returns the number of stored entries.
func (a *CSR[T]) NNZ() int { return len(a.Val) }

// Clone returns a deep copy of the matrix.
func (a *CSR[T]) Clone() *CSR[T] {
	b := &CSR[T]{
		rows:   a.rows,
		cols:   a.cols,
		RowPtr: append([]int(nil), a.RowPtr...),
		ColIdx: append([]int(nil), a.ColIdx...),
		Val:    append([]T(nil), a.Val...),
	}
	return b
}

// At returns the value at (i, j), zero if the entry is not stored. Lookup is
// a binary search within the row; use iteration for bulk access.
func (a *CSR[T]) At(i, j int) T {
	if i < 0 || i >= a.rows || j < 0 || j >= a.cols {
		panic(fmt.Sprintf("sparse: CSR index (%d,%d) out of range %d×%d", i, j, a.rows, a.cols))
	}
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case a.ColIdx[mid] < j:
			lo = mid + 1
		case a.ColIdx[mid] > j:
			hi = mid
		default:
			return a.Val[mid]
		}
	}
	var zero T
	return zero
}

// MatVec computes dst = A*x. dst must have length rows and x length cols;
// dst and x must not alias.
func (a *CSR[T]) MatVec(dst, x []T) {
	if len(dst) != a.rows || len(x) != a.cols {
		panic("sparse: CSR MatVec dimension mismatch")
	}
	for i := 0; i < a.rows; i++ {
		var sum T
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			sum += a.Val[k] * x[a.ColIdx[k]]
		}
		dst[i] = sum
	}
}

// Transpose returns Aᵀ as a new CSR matrix.
func (a *CSR[T]) Transpose() *CSR[T] {
	ptr := make([]int, a.cols+1)
	for _, j := range a.ColIdx {
		ptr[j+1]++
	}
	for j := 0; j < a.cols; j++ {
		ptr[j+1] += ptr[j]
	}
	idx := make([]int, len(a.ColIdx))
	val := make([]T, len(a.Val))
	next := append([]int(nil), ptr[:a.cols]...)
	for i := 0; i < a.rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			p := next[j]
			idx[p] = i
			val[p] = a.Val[k]
			next[j]++
		}
	}
	return &CSR[T]{rows: a.cols, cols: a.rows, RowPtr: ptr, ColIdx: idx, Val: val}
}

// ToCSC converts the matrix to CSC format.
func (a *CSR[T]) ToCSC() *CSC[T] {
	t := a.Transpose()
	return &CSC[T]{rows: a.rows, cols: a.cols, ColPtr: t.RowPtr, RowIdx: t.ColIdx, Val: t.Val}
}

// Scale multiplies every stored entry by alpha in place.
func (a *CSR[T]) Scale(alpha T) {
	for i := range a.Val {
		a.Val[i] *= alpha
	}
}

// Add returns alpha*A + beta*B as a new CSR matrix. A and B must have equal
// dimensions. The result pattern is the union of both patterns with exact
// zeros retained (keeps symbolic structure stable across expansion points).
func (a *CSR[T]) Add(alpha T, b *CSR[T], beta T) *CSR[T] {
	if a.rows != b.rows || a.cols != b.cols {
		panic("sparse: CSR Add dimension mismatch")
	}
	ptr := make([]int, a.rows+1)
	idx := make([]int, 0, a.NNZ()+b.NNZ())
	val := make([]T, 0, a.NNZ()+b.NNZ())
	for i := 0; i < a.rows; i++ {
		ka, ea := a.RowPtr[i], a.RowPtr[i+1]
		kb, eb := b.RowPtr[i], b.RowPtr[i+1]
		for ka < ea || kb < eb {
			switch {
			case kb >= eb || (ka < ea && a.ColIdx[ka] < b.ColIdx[kb]):
				idx = append(idx, a.ColIdx[ka])
				val = append(val, alpha*a.Val[ka])
				ka++
			case ka >= ea || b.ColIdx[kb] < a.ColIdx[ka]:
				idx = append(idx, b.ColIdx[kb])
				val = append(val, beta*b.Val[kb])
				kb++
			default:
				idx = append(idx, a.ColIdx[ka])
				val = append(val, alpha*a.Val[ka]+beta*b.Val[kb])
				ka++
				kb++
			}
		}
		ptr[i+1] = len(idx)
	}
	return &CSR[T]{rows: a.rows, cols: a.cols, RowPtr: ptr, ColIdx: idx, Val: val}
}

// ToDense expands the matrix into a dense row-major [][]T.
func (a *CSR[T]) ToDense() [][]T {
	d := make([][]T, a.rows)
	buf := make([]T, a.rows*a.cols)
	for i := range d {
		d[i] = buf[i*a.cols : (i+1)*a.cols]
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			d[i][a.ColIdx[k]] = a.Val[k]
		}
	}
	return d
}

// ToComplex widens a real CSR matrix to complex128 with the same pattern.
func ToComplex(a *CSR[float64]) *CSR[complex128] {
	val := make([]complex128, len(a.Val))
	for i, v := range a.Val {
		val[i] = complex(v, 0)
	}
	return &CSR[complex128]{
		rows:   a.rows,
		cols:   a.cols,
		RowPtr: append([]int(nil), a.RowPtr...),
		ColIdx: append([]int(nil), a.ColIdx...),
		Val:    val,
	}
}
