package sparse

import (
	"fmt"
	"sort"
)

// CSC is a compressed sparse column matrix. Column j occupies the half-open
// range [ColPtr[j], ColPtr[j+1]) of RowIdx/Val; row indices within a column
// are strictly increasing. CSC is the working format of the sparse LU
// factorization.
type CSC[T Scalar] struct {
	rows, cols int
	ColPtr     []int
	RowIdx     []int
	Val        []T
}

// NewCSC assembles a CSC matrix from raw compressed arrays (not copied).
func NewCSC[T Scalar](rows, cols int, colPtr, rowIdx []int, val []T) *CSC[T] {
	if len(colPtr) != cols+1 {
		panic(fmt.Sprintf("sparse: CSC colPtr length %d, want %d", len(colPtr), cols+1))
	}
	if len(rowIdx) != len(val) || len(rowIdx) != colPtr[cols] {
		panic("sparse: CSC rowIdx/val length mismatch")
	}
	return &CSC[T]{rows: rows, cols: cols, ColPtr: colPtr, RowIdx: rowIdx, Val: val}
}

// Dims returns the matrix dimensions.
func (a *CSC[T]) Dims() (rows, cols int) { return a.rows, a.cols }

// NNZ returns the number of stored entries.
func (a *CSC[T]) NNZ() int { return len(a.Val) }

// Clone returns a deep copy of the matrix.
func (a *CSC[T]) Clone() *CSC[T] {
	return &CSC[T]{
		rows:   a.rows,
		cols:   a.cols,
		ColPtr: append([]int(nil), a.ColPtr...),
		RowIdx: append([]int(nil), a.RowIdx...),
		Val:    append([]T(nil), a.Val...),
	}
}

// ToCSR converts the matrix to CSR format.
func (a *CSC[T]) ToCSR() *CSR[T] {
	// CSC of A viewed column-major equals CSR of Aᵀ viewed row-major;
	// transposing that CSR yields CSR of A.
	t := &CSR[T]{rows: a.cols, cols: a.rows, RowPtr: a.ColPtr, ColIdx: a.RowIdx, Val: a.Val}
	return t.Transpose()
}

// MatVec computes dst = A*x with column-major accumulation.
func (a *CSC[T]) MatVec(dst, x []T) {
	if len(dst) != a.rows || len(x) != a.cols {
		panic("sparse: CSC MatVec dimension mismatch")
	}
	for i := range dst {
		var zero T
		dst[i] = zero
	}
	for j := 0; j < a.cols; j++ {
		xj := x[j]
		if IsZero(xj) {
			continue
		}
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			dst[a.RowIdx[k]] += a.Val[k] * xj
		}
	}
}

// PermuteSym returns P A Pᵀ where the permutation p maps new index to old
// index: (P A Pᵀ)[i][j] = A[p[i]][p[j]]. A must be square and p a valid
// permutation of its dimension. Explicit zeros are dropped.
//
// New column i is old column p[i] with its rows renumbered, so the result is
// built in one pass over A: column counts, a scatter, and a sort of each
// (short) column by its new row indices.
func (a *CSC[T]) PermuteSym(p Perm) *CSC[T] {
	if a.rows != a.cols {
		panic("sparse: PermuteSym requires a square matrix")
	}
	if len(p) != a.cols {
		panic("sparse: PermuteSym permutation length mismatch")
	}
	n := a.cols
	inv := p.Inverse()
	colPtr := make([]int, n+1)
	for j := 0; j < n; j++ {
		c := 0
		for _, v := range a.Val[a.ColPtr[j]:a.ColPtr[j+1]] {
			if !IsZero(v) {
				c++
			}
		}
		colPtr[inv[j]+1] = c
	}
	for j := 0; j < n; j++ {
		colPtr[j+1] += colPtr[j]
	}
	rowIdx := make([]int, colPtr[n])
	val := make([]T, colPtr[n])
	for j, old := range p {
		dst := colPtr[j]
		for k := a.ColPtr[old]; k < a.ColPtr[old+1]; k++ {
			if v := a.Val[k]; !IsZero(v) {
				rowIdx[dst], val[dst] = inv[a.RowIdx[k]], v
				dst++
			}
		}
		sortColumn(rowIdx[colPtr[j]:dst], val[colPtr[j]:dst])
	}
	return &CSC[T]{rows: n, cols: n, ColPtr: colPtr, RowIdx: rowIdx, Val: val}
}

// sortColumn sorts one column's entries by row index: insertion sort for
// the few entries of a typical column, sort.Sort for a dense one.
func sortColumn[T Scalar](idx []int, val []T) {
	if len(idx) > 32 {
		sort.Sort(columnEntries[T]{idx, val})
		return
	}
	for i := 1; i < len(idx); i++ {
		r, v := idx[i], val[i]
		k := i
		for ; k > 0 && idx[k-1] > r; k-- {
			idx[k], val[k] = idx[k-1], val[k-1]
		}
		idx[k], val[k] = r, v
	}
}

// columnEntries sorts a column's (row, value) pairs by row.
type columnEntries[T Scalar] struct {
	idx []int
	val []T
}

func (c columnEntries[T]) Len() int           { return len(c.idx) }
func (c columnEntries[T]) Less(i, j int) bool { return c.idx[i] < c.idx[j] }
func (c columnEntries[T]) Swap(i, j int) {
	c.idx[i], c.idx[j] = c.idx[j], c.idx[i]
	c.val[i], c.val[j] = c.val[j], c.val[i]
}
