package sparse

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotSPD is returned when the Cholesky factorization cannot certify its
// input: the matrix is not symmetric up to a row signing, or a pivot's sign
// disagrees with the sign of its row (for an unsigned matrix: a non-positive
// pivot, so the matrix is not symmetric positive definite).
var ErrNotSPD = errors.New("sparse: matrix is not symmetric positive definite")

// symTol is the relative tolerance on aᵢⱼ ≈ ±aⱼᵢ that admits a matrix to the
// symmetric factor; it absorbs the roundoff of a Schur complement.
const symTol = 1e-12

// Cholesky holds a signed sparse Cholesky factorization
//
//	P·S·A·Pᵀ = L·Σ·Lᵀ,  S = diag(±1),  Σ = diag(sign dₖ),  Lₖₖ = √|dₖ|,
//
// of a matrix A that some row signing S makes symmetric quasi-definite. The
// pencil s0·C - G of an RC-only power grid is SPD, so S = Σ = I and this is
// plain Cholesky. An RLC pencil is symmetric except for antisymmetric
// inductor couplings; negating the inductor-current rows leaves an SPD node
// block, a negative definite inductor block and symmetric couplings, which
// has such a factorization under every symmetric permutation without
// pivoting (Vanderbei, SIAM J. Optim. 1995). Roughly half the work and fill
// of LU on the same matrix. Implements the Solver interface.
type Cholesky struct {
	n   int
	l   *CSC[float64] // lower triangular, diagonal first per column
	q   Perm          // fill-reducing ordering (new→old)
	sig []float64     // sig[k] = s[q[k]] = Σₖ, ±1 in factor order
}

// Direct is a real sparse direct factorization: the factor Factor picks,
// serving single, buffered and panel solves.
type Direct interface {
	Solver[float64]
	// SolveBuf is Solve with caller-provided scratch of length N.
	SolveBuf(dst, b, w []float64)
	// SolvePanel solves the PanelWidth right-hand sides interleaved in x
	// in place; w is scratch of the same length.
	SolvePanel(x, w []float64)
	// NNZ returns the stored entry count of the factor.
	NNZ() int
}

// Factor factors the real square matrix a for repeated solves: the signed
// Cholesky factorization when a is symmetric quasi-definite up to a row
// signing (every RC and RLC MNA pencil), and sparse LU when no signing
// exists or the factorization cannot certify its pivot signs.
func Factor(a *CSR[float64], opts LUOptions) (Direct, error) {
	sa, s := signedCSC(a)
	if s != nil {
		ch, err := factorCholesky(sa, s, opts)
		switch {
		case err == nil:
			return ch, nil
		case !errors.Is(err, ErrNotSPD):
			return nil, err
		}
		negateRows(sa, s) // back to A for LU
	}
	lu, err := FactorLU(sa, opts)
	if err != nil {
		return nil, err
	}
	return lu, nil
}

// SolveMany solves A X = B in place on the factor f, PanelWidth columns per
// pass: each element of x is overwritten with the corresponding solution.
func SolveMany(f Direct, x [][]float64) error {
	n := f.N()
	for c := range x {
		if len(x[c]) != n {
			return fmt.Errorf("sparse: SolveMany column %d length mismatch", c)
		}
	}
	panel := make([]float64, 2*n*PanelWidth)
	p, w := panel[:n*PanelWidth], panel[n*PanelWidth:]
	for c := 0; c < len(x); c += PanelWidth {
		cols := x[c:min(c+PanelWidth, len(x))]
		PackPanel(p, cols)
		f.SolvePanel(p, w)
		UnpackPanel(cols, p)
	}
	return nil
}

// IsSymmetric reports whether A equals Aᵀ within the given relative
// tolerance on each entry. It walks the rows in order with one cursor per
// row instead of building Aᵀ: row i matches each entry aᵢⱼ above the
// diagonal with the next unmatched entry of row j, which must be aⱼᵢ
// because CSR rows are strictly increasing, and every entry below the
// diagonal must have been matched that way before its row is reached. It
// allocates the n cursors and nothing else.
func IsSymmetric(a *CSR[float64], tol float64) bool {
	n, m := a.Dims()
	if n != m {
		return false
	}
	cur := append([]int(nil), a.RowPtr[:n]...)
	for i := 0; i < n; i++ {
		for k := cur[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			switch {
			case j < i: // an entry below the diagonal without its mirror
				return false
			case j == i:
				if !near(a.Val[k], a.Val[k], tol) {
					return false
				}
			default:
				c := cur[j]
				if c == a.RowPtr[j+1] || a.ColIdx[c] != i || !near(a.Val[k], a.Val[c], tol) {
					return false
				}
				cur[j] = c + 1
			}
		}
	}
	return true
}

// mirror returns Aᵀ and whether it has the pattern of A, so that entry k of
// both is the mirrored pair aᵢⱼ, aⱼᵢ.
func mirror(a *CSR[float64]) (*CSR[float64], bool) {
	n, m := a.Dims()
	t := a.Transpose()
	if n != m || len(t.ColIdx) != len(a.ColIdx) {
		return t, false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != t.RowPtr[i] {
			return t, false
		}
	}
	for k := range a.ColIdx {
		if a.ColIdx[k] != t.ColIdx[k] {
			return t, false
		}
	}
	return t, true
}

// near reports whether x and y agree within relative tolerance tol.
func near(x, y, tol float64) bool {
	return math.Abs(x-y) <= tol*(math.Abs(x)+math.Abs(y))/2+1e-300
}

// signedCSC returns S·A in CSC form together with the diagonal s of a row
// signing S that makes it symmetric within symTol, or A in CSC form and a
// nil s when none exists. The CSC form is the transpose that the mirror
// comparison builds anyway, signed in place. Signs propagate over each
// connected component from +1 at its lowest index: aᵢⱼ ≈ aⱼᵢ gives j the
// sign of i, aᵢⱼ ≈ −aⱼᵢ the opposite one, and any other pair, a missing
// mirror entry, or an odd cycle of antisymmetric couplings means no signing.
// A symmetric matrix gets s = 1 everywhere and unchanged values.
func signedCSC(a *CSR[float64]) (*CSC[float64], []float64) {
	t, ok := mirror(a)
	n, m := a.Dims()
	csc := &CSC[float64]{rows: n, cols: m, ColPtr: t.RowPtr, RowIdx: t.ColIdx, Val: t.Val}
	if !ok {
		return csc, nil
	}
	s := make([]float64, n) // 0 until reached
	var stack []int
	for root := 0; root < n; root++ {
		if s[root] != 0 {
			continue
		}
		s[root] = 1
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				aij, aji := a.Val[k], t.Val[k]
				want := s[i]
				switch sym, anti := near(aij, aji, symTol), near(aij, -aji, symTol); {
				case sym && anti:
					continue // a zero pair couples nothing
				case anti:
					want = -want
				case !sym:
					return csc, nil
				}
				switch j := a.ColIdx[k]; s[j] {
				case 0:
					s[j] = want
					stack = append(stack, j)
				case -want:
					return csc, nil
				}
			}
		}
	}
	negateRows(csc, s)
	return csc, s
}

// negateRows negates, in place, the rows i of a with s[i] < 0.
func negateRows(a *CSC[float64], s []float64) {
	for k, i := range a.RowIdx {
		if s[i] < 0 {
			a.Val[k] = -a.Val[k]
		}
	}
}

// factorCholesky factors the symmetric matrix sa = S·A, with S = diag(s),
// as P·sa·Pᵀ = L·Σ·Lᵀ, and certifies Σ = P·S·Pᵀ pivot by pivot.
func factorCholesky(a *CSC[float64], s []float64, opts LUOptions) (*Cholesky, error) {
	n, m := a.Dims()
	if n != m {
		return nil, fmt.Errorf("sparse: cannot Cholesky-factor non-square %d×%d matrix", n, m)
	}
	q, aq := orderSym(a, opts.Ordering)
	sig := make([]float64, n)
	for k, old := range q {
		sig[k] = s[old]
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
		// Up-looking triangular solve L·Σ·l = a across the reach in
		// topological order: z = Σ·l solves with L, and L[k][j] = Σⱼ·zⱼ.
		d := akk
		for _, j := range pattern[reach(k):] {
			zj := x[j] / lx[lp[j]]
			x[j] = 0
			// x -= L(:,j)·zj over the rows of column j so far, all < k.
			for p := lp[j] + 1; p < next[j]; p++ {
				x[li[p]] -= lx[p] * zj
			}
			lkj := sig[j] * zj
			d -= lkj * zj
			// Record L[k][j].
			li[next[j]], lx[next[j]] = k, lkj
			next[j]++
		}
		// The certificate: dₖ has the sign of its row (NaN fails too).
		if !(sig[k]*d > 0) {
			return nil, fmt.Errorf("%w: pivot %g at column %d of sign %g", ErrNotSPD, d, k, sig[k])
		}
		lx[lp[k]] = math.Sqrt(sig[k] * d)
	}
	return &Cholesky{
		n:   n,
		l:   &CSC[float64]{rows: n, cols: n, ColPtr: lp, RowIdx: li, Val: lx},
		q:   q,
		sig: sig,
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
	// w = P·S·b.
	for i := 0; i < n; i++ {
		w[i] = c.sig[i] * b[c.q[i]]
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
	// Back solve Lᵀ y = Σ·z.
	for j := n - 1; j >= 0; j-- {
		dp := l.ColPtr[j]
		sum := c.sig[j] * w[j]
		for p := dp + 1; p < l.ColPtr[j+1]; p++ {
			sum -= l.Val[p] * w[l.RowIdx[p]]
		}
		w[j] = sum / l.Val[dp]
	}
	for i := 0; i < n; i++ {
		dst[c.q[i]] = w[i]
	}
}
