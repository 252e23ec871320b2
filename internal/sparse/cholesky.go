package sparse

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotSPD is returned when Cholesky factorization encounters a
// non-positive pivot, i.e. the matrix is not symmetric positive definite.
var ErrNotSPD = errors.New("sparse: matrix is not symmetric positive definite")

// Cholesky holds a sparse factorization P·A·Pᵀ = L·Lᵀ of a symmetric
// positive definite matrix, such as the pencil (s0·C - G) of an RC-only
// power grid at a real expansion point. Roughly half the work and fill of
// LU on the same matrix. Implements the Solver interface.
type Cholesky struct {
	n int
	l *CSC[float64] // lower triangular, diagonal first per column
	q Perm          // fill-reducing ordering (new→old)
}

// IsSymmetric reports whether A equals Aᵀ within the given relative
// tolerance on each entry.
func IsSymmetric(a *CSR[float64], tol float64) bool {
	n, m := a.Dims()
	if n != m {
		return false
	}
	t := a.Transpose()
	if len(t.ColIdx) != len(a.ColIdx) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != t.RowPtr[i] {
			return false
		}
	}
	for k := range a.ColIdx {
		if a.ColIdx[k] != t.ColIdx[k] {
			return false
		}
		if math.Abs(a.Val[k]-t.Val[k]) > tol*(math.Abs(a.Val[k])+math.Abs(t.Val[k]))/2+1e-300 {
			return false
		}
	}
	return true
}

// FactorCholesky computes the up-looking sparse Cholesky factorization of
// the SPD matrix a with the selected fill-reducing ordering (the zero
// LUOptions orders by AMD). Returns ErrNotSPD for indefinite or
// unsymmetric-beyond-roundoff inputs (only the lower triangle of the
// permuted matrix is read, so structural symmetry is the caller's
// responsibility; use IsSymmetric).
func FactorCholesky(a *CSC[float64], opts LUOptions) (*Cholesky, error) {
	opts.defaults()
	n, m := a.Dims()
	if n != m {
		return nil, fmt.Errorf("sparse: cannot Cholesky-factor non-square %d×%d matrix", n, m)
	}
	q := IdentityPerm(n)
	switch opts.Ordering {
	case OrderRCM:
		q = RCM(a)
	case OrderAMD:
		q = AMD(a)
	}
	aq := a
	if opts.Ordering != OrderNatural {
		aq = a.PermuteSym(q)
	}

	// Elimination tree and an ereach-based up-looking factorization
	// (Davis, "Direct Methods for Sparse Linear Systems", ch. 4). The reach
	// of row k in the tree is the pattern of row k of L, so a symbolic pass
	// over the reaches counts every column and L is allocated once.
	parent := etree(aq)
	pattern := make([]int, n)  // ereach stack
	marked := make([]int32, n) // epoch marks
	epoch := int32(0)
	// reach collects the pattern of row k of L into pattern[top:], in
	// topological order, and returns top.
	reach := func(k int) int {
		epoch++
		top := n
		for p := aq.ColPtr[k]; p < aq.ColPtr[k+1]; p++ {
			i := aq.RowIdx[p]
			if i >= k {
				continue // the lower part is handled when its row is reached
			}
			len0 := 0
			for t := i; t != -1 && t < k && marked[t] != epoch; t = parent[t] {
				pattern[len0] = t
				len0++
				marked[t] = epoch
			}
			for len0 > 0 {
				len0--
				top--
				pattern[top] = pattern[len0]
			}
		}
		return top
	}
	lp := make([]int, n+1) // column j: diagonal at lp[j], then rows in order
	for k := 0; k < n; k++ {
		for _, j := range pattern[reach(k):] {
			lp[j+1]++
		}
	}
	for j := 0; j < n; j++ {
		lp[j+1] += lp[j] + 1
	}
	li := make([]int, lp[n])
	lx := make([]float64, lp[n])
	next := make([]int, n) // next free slot of each column
	for j := range next {
		li[lp[j]] = j
		next[j] = lp[j] + 1
	}

	x := make([]float64, n) // dense scratch for row k
	for k := 0; k < n; k++ {
		// Scatter row k of the lower triangle of A (= column k of upper).
		akk := 0.0
		for p := aq.ColPtr[k]; p < aq.ColPtr[k+1]; p++ {
			switch i := aq.RowIdx[p]; {
			case i < k:
				x[i] = aq.Val[p]
			case i == k:
				akk = aq.Val[p]
			}
		}
		// Up-looking triangular solve across the reach in topological order.
		d := akk
		for _, j := range pattern[reach(k):] {
			lkj := x[j] / lx[lp[j]]
			x[j] = 0
			// x -= L(:,j)·lkj over the rows of column j so far, all < k.
			for p := lp[j] + 1; p < next[j]; p++ {
				x[li[p]] -= lx[p] * lkj
			}
			d -= lkj * lkj
			// Record L[k][j].
			li[next[j]], lx[next[j]] = k, lkj
			next[j]++
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w: pivot %g at column %d", ErrNotSPD, d, k)
		}
		lx[lp[k]] = math.Sqrt(d)
	}
	return &Cholesky{
		n: n,
		l: &CSC[float64]{rows: n, cols: n, ColPtr: lp, RowIdx: li, Val: lx},
		q: q,
	}, nil
}

// etree computes the elimination tree of a symmetric matrix given in CSC
// form (both triangles may be present; only the upper triangle per column,
// i.e. entries with row < col, drive the tree).
func etree(a *CSC[float64]) []int {
	n, _ := a.Dims()
	parent := make([]int, n)
	ancestor := make([]int, n)
	for k := 0; k < n; k++ {
		parent[k] = -1
		ancestor[k] = -1
		for p := a.ColPtr[k]; p < a.ColPtr[k+1]; p++ {
			i := a.RowIdx[p]
			for i < k && i != -1 {
				next := ancestor[i]
				ancestor[i] = k
				if next == -1 {
					parent[i] = k
				}
				i = next
			}
		}
	}
	return parent
}

// N returns the system dimension.
func (c *Cholesky) N() int { return c.n }

// NNZ returns the stored entry count of L.
func (c *Cholesky) NNZ() int { return c.l.NNZ() }

// Solve solves A x = b into dst; dst and b may alias.
func (c *Cholesky) Solve(dst, b []float64) error {
	if len(dst) != c.n || len(b) != c.n {
		return fmt.Errorf("sparse: Cholesky Solve length mismatch (n=%d)", c.n)
	}
	w := make([]float64, c.n)
	c.SolveBuf(dst, b, w)
	return nil
}

// SolveBuf is Solve with a caller-provided scratch buffer.
func (c *Cholesky) SolveBuf(dst, b, w []float64) {
	n := c.n
	for i := 0; i < n; i++ {
		w[i] = b[c.q[i]]
	}
	l := c.l
	// Forward solve L z = w.
	for j := 0; j < n; j++ {
		dp := l.ColPtr[j]
		zj := w[j] / l.Val[dp]
		w[j] = zj
		if zj == 0 {
			continue
		}
		for p := dp + 1; p < l.ColPtr[j+1]; p++ {
			w[l.RowIdx[p]] -= l.Val[p] * zj
		}
	}
	// Back solve Lᵀ y = z.
	for j := n - 1; j >= 0; j-- {
		dp := l.ColPtr[j]
		sum := w[j]
		for p := dp + 1; p < l.ColPtr[j+1]; p++ {
			sum -= l.Val[p] * w[l.RowIdx[p]]
		}
		w[j] = sum / l.Val[dp]
	}
	for i := 0; i < n; i++ {
		dst[c.q[i]] = w[i]
	}
}
