package sparse

import (
	"errors"
	"fmt"
)

// ErrSingular is returned when LU factorization encounters a column with no
// admissible nonzero pivot, i.e. the matrix (or matrix pencil evaluated at
// the chosen expansion point) is numerically singular.
var ErrSingular = errors.New("sparse: matrix is numerically singular")

// LUOptions configures a sparse direct factorization.
type LUOptions struct {
	// Ordering selects the fill-reducing pre-ordering applied symmetrically
	// to rows and columns before factorization. The zero value is OrderAMD,
	// so every factorization is ordered unless it asks for OrderNatural.
	Ordering Ordering
}

// pivotTol is the threshold-partial-pivoting relative tolerance: the
// diagonal entry is kept as pivot whenever its magnitude is at least
// pivotTol times the column maximum, which preserves the fill-reducing
// ordering on the nearly-symmetric MNA matrices of power grids.
const pivotTol = 0.1

// LU holds a sparse factorization Pr · A(q,q) = L·U with unit lower
// triangular L and upper triangular U, where q is the fill-reducing
// pre-ordering and Pr the partial-pivoting row permutation. It implements
// the Solver interface.
type LU[T Scalar] struct {
	n    int
	l    *CSC[T] // unit lower triangular, diagonal stored first per column
	u    *CSC[T] // upper triangular, diagonal stored last per column
	q    Perm    // symmetric pre-ordering (new→old)
	pinv []int   // row i of A(q,q) becomes pivot row pinv[i]
}

// FactorLU computes a sparse LU factorization of the square matrix a.
func FactorLU[T Scalar](a *CSC[T], opts LUOptions) (*LU[T], error) {
	n, m := a.Dims()
	if n != m {
		return nil, fmt.Errorf("sparse: cannot LU-factor non-square %d×%d matrix", n, m)
	}
	q, aq := orderSym(a, opts.Ordering)

	nnzEst := 4*a.NNZ() + n
	lp := make([]int, n+1)
	li := make([]int, 0, nnzEst)
	lx := make([]T, 0, nnzEst)
	up := make([]int, n+1)
	ui := make([]int, 0, nnzEst)
	ux := make([]T, 0, nnzEst)

	pinv := make([]int, n)
	for i := range pinv {
		pinv[i] = -1
	}
	x := make([]T, n)      // numeric workspace
	xi := make([]int, 2*n) // reach output + DFS stack
	pstack := make([]int, n)
	marked := make([]bool, n)

	for j := 0; j < n; j++ {
		// Symbolic: reach of A(q,q)(:,j) in the graph of current L.
		top := n
		for p := aq.ColPtr[j]; p < aq.ColPtr[j+1]; p++ {
			i := aq.RowIdx[p]
			if marked[i] {
				continue
			}
			top = luDFS(i, lp, li, pinv, marked, xi, pstack, top)
		}
		// Numeric: scatter column j and eliminate in topological order.
		for p := top; p < n; p++ {
			var zero T
			x[xi[p]] = zero
		}
		for p := aq.ColPtr[j]; p < aq.ColPtr[j+1]; p++ {
			x[aq.RowIdx[p]] = aq.Val[p]
		}
		for p := top; p < n; p++ {
			i := xi[p]
			col := pinv[i]
			if col < 0 {
				continue
			}
			xiVal := x[i]
			if IsZero(xiVal) {
				continue
			}
			// Skip the unit diagonal stored first in column col.
			for k := lp[col] + 1; k < lp[col+1]; k++ {
				x[li[k]] -= lx[k] * xiVal
			}
		}
		// Pivot selection among not-yet-pivoted rows with threshold
		// preference for the diagonal (row index j in pre-ordered space).
		ipiv := -1
		maxAbs := 0.0
		var diagAbs float64
		diagFound := false
		for p := top; p < n; p++ {
			i := xi[p]
			if pinv[i] >= 0 {
				continue
			}
			av := Abs(x[i])
			if av > maxAbs {
				maxAbs = av
				ipiv = i
			}
			if i == j {
				diagAbs = av
				diagFound = true
			}
		}
		if ipiv < 0 || maxAbs == 0 {
			return nil, fmt.Errorf("%w: zero pivot column %d", ErrSingular, j)
		}
		if diagFound && diagAbs >= pivotTol*maxAbs {
			ipiv = j
		}
		pivot := x[ipiv]
		pinv[ipiv] = j

		// Emit U column j (rows already pivoted, plus the pivot last) and
		// L column j (unit diagonal first, then subdiagonal entries).
		li = append(li, ipiv)
		lx = append(lx, FromFloat[T](1))
		for p := top; p < n; p++ {
			i := xi[p]
			marked[i] = false // reset for next column
			switch {
			case pinv[i] >= 0 && i != ipiv:
				ui = append(ui, pinv[i])
				ux = append(ux, x[i])
			case pinv[i] < 0:
				if !IsZero(x[i]) {
					li = append(li, i)
					lx = append(lx, x[i]/pivot)
				}
			}
		}
		ui = append(ui, j)
		ux = append(ux, pivot)
		lp[j+1] = len(li)
		up[j+1] = len(ui)
	}

	// Remap L row indices into pivot coordinates so L is truly lower
	// triangular; U rows are already in pivot coordinates.
	for k := range li {
		li[k] = pinv[li[k]]
	}
	return &LU[T]{
		n:    n,
		l:    &CSC[T]{rows: n, cols: n, ColPtr: lp, RowIdx: li, Val: lx},
		u:    &CSC[T]{rows: n, cols: n, ColPtr: up, RowIdx: ui, Val: ux},
		q:    q,
		pinv: pinv,
	}, nil
}

// luDFS performs the depth-first search of the Gilbert–Peierls symbolic
// step from row index i, pushing the reach in reverse topological order into
// xi[top-1:...]. Returns the new top.
func luDFS(i int, lp []int, li []int, pinv []int, marked []bool, xi, pstack []int, top int) int {
	head := 0
	xi[head] = i
	for head >= 0 {
		i = xi[head]
		jcol := pinv[i]
		if !marked[i] {
			marked[i] = true
			if jcol < 0 {
				pstack[head] = 0
			} else {
				pstack[head] = lp[jcol] + 1 // skip unit diagonal
			}
		}
		done := true
		if jcol >= 0 {
			for p := pstack[head]; p < lp[jcol+1]; p++ {
				row := li[p]
				if !marked[row] {
					pstack[head] = p + 1
					head++
					xi[head] = row
					done = false
					break
				}
			}
		}
		if done {
			head--
			top--
			xi[top] = i
		}
	}
	return top
}

// N returns the dimension of the factored matrix.
func (lu *LU[T]) N() int { return lu.n }

// NNZ returns the total number of stored entries in L and U.
func (lu *LU[T]) NNZ() int { return lu.l.NNZ() + lu.u.NNZ() }

// Solve solves A x = b, storing the result in dst. dst and b must have
// length N and may alias each other.
func (lu *LU[T]) Solve(dst, b []T) error {
	if len(dst) != lu.n || len(b) != lu.n {
		return fmt.Errorf("sparse: LU Solve length mismatch (n=%d)", lu.n)
	}
	w := make([]T, lu.n)
	lu.SolveBuf(dst, b, w)
	return nil
}

// SolveBuf is Solve with a caller-provided scratch buffer of length N,
// avoiding per-solve allocation in Krylov loops.
func (lu *LU[T]) SolveBuf(dst, b, w []T) {
	n := lu.n
	// w = Pr · b(q): row i of the pre-ordered system is b[q[i]] and lands
	// in pivot position pinv[i].
	for i := 0; i < n; i++ {
		w[lu.pinv[i]] = b[lu.q[i]]
	}
	// Forward solve L z = w (unit diagonal first per column).
	l := lu.l
	for j := 0; j < n; j++ {
		zj := w[j]
		if IsZero(zj) {
			continue
		}
		for p := l.ColPtr[j] + 1; p < l.ColPtr[j+1]; p++ {
			w[l.RowIdx[p]] -= l.Val[p] * zj
		}
	}
	// Back solve U y = z (diagonal last per column).
	u := lu.u
	for j := n - 1; j >= 0; j-- {
		dp := u.ColPtr[j+1] - 1
		yj := w[j] / u.Val[dp]
		w[j] = yj
		if IsZero(yj) {
			continue
		}
		for p := u.ColPtr[j]; p < dp; p++ {
			w[u.RowIdx[p]] -= u.Val[p] * yj
		}
	}
	// Undo the symmetric pre-ordering: x[q[i]] = y[i].
	for i := 0; i < n; i++ {
		dst[lu.q[i]] = w[i]
	}
}
