package sparse

import (
	"fmt"
	"math"
	"sort"
)

// COO is a coordinate-format (triplet) sparse matrix builder. Entries may be
// added in any order; duplicates are summed when the matrix is compiled to
// CSR or CSC. COO is the natural target of MNA stamping, where several
// circuit elements contribute to the same matrix position.
type COO[T Scalar] struct {
	rows, cols int
	ri, ci     []int32
	v          []T
}

// NewCOO returns an empty rows×cols triplet builder. Triplet indices are
// stored as int32, so neither dimension may exceed math.MaxInt32.
func NewCOO[T Scalar](rows, cols int) *COO[T] {
	if rows < 0 || cols < 0 || rows > math.MaxInt32 || cols > math.MaxInt32 {
		panic(fmt.Sprintf("sparse: COO dimensions %d×%d out of range", rows, cols))
	}
	return &COO[T]{rows: rows, cols: cols}
}

// Dims returns the matrix dimensions.
func (a *COO[T]) Dims() (rows, cols int) { return a.rows, a.cols }

// Reserve grows the triplet storage to hold at least n entries without
// further reallocation. Assembly code that knows its stamp count up front
// (grid generators) uses it to avoid append growth on million-entry builds.
func (a *COO[T]) Reserve(n int) {
	if n <= cap(a.v) {
		return
	}
	ri := make([]int32, len(a.ri), n)
	copy(ri, a.ri)
	a.ri = ri
	ci := make([]int32, len(a.ci), n)
	copy(ci, a.ci)
	a.ci = ci
	v := make([]T, len(a.v), n)
	copy(v, a.v)
	a.v = v
}

// NNZ returns the number of stored triplets (duplicates counted separately).
func (a *COO[T]) NNZ() int { return len(a.v) }

// Add appends the triplet (i, j, v). Zero values are kept so that stamping
// code does not need to special-case cancelling contributions; they are
// dropped during compilation.
func (a *COO[T]) Add(i, j int, v T) {
	if i < 0 || i >= a.rows || j < 0 || j >= a.cols {
		panic(fmt.Sprintf("sparse: COO index (%d,%d) out of range %d×%d", i, j, a.rows, a.cols))
	}
	a.ri = append(a.ri, int32(i))
	a.ci = append(a.ci, int32(j))
	a.v = append(a.v, v)
}

// compile orders triplets by (major, minor), sums duplicates and drops exact
// zeros, returning the compressed arrays. major selects row-major (CSR) or
// column-major (CSC) compilation.
//
// One stable counting sort by major index writes the triplets straight into
// the output arrays, O(nnz + rows + cols) where a comparison sort would be
// O(nnz·log nnz) on million-node grids. Each line is then compacted in
// place: a marker over the minor dimension sends every duplicate to the
// line's first occurrence of its index, where the values are summed from
// zero in insertion (stamping) order, so compiled values are reproducible
// bit for bit from the stamping sequence alone. Exact zeros are dropped and
// the line is sorted by minor index. Besides the output it allocates one
// marker slice over the minor dimension.
func (a *COO[T]) compile(rowMajor bool) (ptr []int, idx []int, val []T) {
	n := len(a.v)
	maj, min := a.ri, a.ci
	majDim, minDim := a.rows, a.cols
	if !rowMajor {
		maj, min = a.ci, a.ri
		majDim, minDim = a.cols, a.rows
	}

	// Counting sort by major index, filled back to front so that it is
	// stable and leaves ptr[m] at the start of line m.
	ptr = make([]int, majDim+1)
	for _, m := range maj {
		ptr[m]++
	}
	for m := 1; m <= majDim; m++ {
		ptr[m] += ptr[m-1]
	}
	idx = make([]int, n)
	val = make([]T, n)
	for t := n - 1; t >= 0; t-- {
		m := maj[t]
		ptr[m]--
		idx[ptr[m]] = int(min[t])
		val[ptr[m]] = a.v[t]
	}

	// mark[j]-1 is where minor index j was last placed. Dropped zeros move
	// later lines back over earlier placements, so a mark counts for the
	// current line only when it points into the line's placed entries and
	// finds j there.
	mark := make([]int, minDim)
	var zero T
	w := 0
	for m := 0; m < majDim; m++ {
		lo, hi := ptr[m], ptr[m+1]
		start := w
		ptr[m] = start
		for r := lo; r < hi; r++ {
			j := idx[r]
			if p := mark[j] - 1; p >= start && p < w && idx[p] == j {
				val[p] += val[r]
				continue
			}
			mark[j] = w + 1
			idx[w] = j
			val[w] = zero + val[r]
			w++
		}
		end := start
		for r := start; r < w; r++ {
			if !IsZero(val[r]) {
				idx[end], val[end] = idx[r], val[r]
				end++
			}
		}
		w = end
		sortLine(idx[start:w], val[start:w])
	}
	ptr[majDim] = w
	return ptr, idx[:w], val[:w]
}

// sortLine orders one compiled line by its distinct minor indices. MNA lines
// hold a handful of entries, where an insertion sort is the cheapest; a long
// line falls back to a comparison sort so that it cannot go quadratic.
func sortLine[T Scalar](idx []int, val []T) {
	if len(idx) > 64 {
		sort.Sort(line[T]{idx, val})
		return
	}
	for i := 1; i < len(idx); i++ {
		j, v := idx[i], val[i]
		k := i
		for ; k > 0 && idx[k-1] > j; k-- {
			idx[k], val[k] = idx[k-1], val[k-1]
		}
		idx[k], val[k] = j, v
	}
}

// line sorts a compiled line's index and value slices together.
type line[T Scalar] struct {
	idx []int
	val []T
}

func (l line[T]) Len() int           { return len(l.idx) }
func (l line[T]) Less(i, j int) bool { return l.idx[i] < l.idx[j] }
func (l line[T]) Swap(i, j int) {
	l.idx[i], l.idx[j] = l.idx[j], l.idx[i]
	l.val[i], l.val[j] = l.val[j], l.val[i]
}

// ToCSR compiles the triplets into a CSR matrix, summing duplicates.
func (a *COO[T]) ToCSR() *CSR[T] {
	ptr, idx, val := a.compile(true)
	return &CSR[T]{rows: a.rows, cols: a.cols, RowPtr: ptr, ColIdx: idx, Val: val}
}

// ToCSC compiles the triplets into a CSC matrix, summing duplicates.
func (a *COO[T]) ToCSC() *CSC[T] {
	ptr, idx, val := a.compile(false)
	return &CSC[T]{rows: a.rows, cols: a.cols, ColPtr: ptr, RowIdx: idx, Val: val}
}
