package dense

import (
	"errors"
	"math"
	"math/cmplx"
)

// ErrEigNoConvergence is returned when QR iteration fails to deflate all
// eigenvalues within its sweep budget.
var ErrEigNoConvergence = errors.New("dense: eigenvalue iteration did not converge")

// EigSym computes the eigendecomposition of a symmetric real matrix using
// cyclic Jacobi rotations: A = V·diag(vals)·Vᵀ. Eigenvalues are returned in
// ascending order with matching eigenvector columns. Only the lower triangle
// of a is read.
func EigSym(a *Mat[float64]) (vals []float64, vecs *Mat[float64], err error) {
	n := a.Rows
	if n != a.Cols {
		return nil, nil, errors.New("dense: EigSym requires a square matrix")
	}
	w := NewMat[float64](n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			w.Set(i, j, a.At(i, j))
			w.Set(j, i, a.At(i, j))
		}
	}
	v := Eye[float64](n)
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				off += math.Abs(w.At(p, q))
			}
		}
		if off < 1e-14*(1+w.MaxAbs()) {
			vals = make([]float64, n)
			for i := range vals {
				vals[i] = w.At(i, i)
			}
			sortEigSym(vals, v)
			return vals, v, nil
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				theta := (w.At(q, q) - w.At(p, p)) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(1+theta*theta))
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				for i := 0; i < n; i++ {
					wip, wiq := w.At(i, p), w.At(i, q)
					w.Set(i, p, c*wip-s*wiq)
					w.Set(i, q, s*wip+c*wiq)
				}
				for j := 0; j < n; j++ {
					wpj, wqj := w.At(p, j), w.At(q, j)
					w.Set(p, j, c*wpj-s*wqj)
					w.Set(q, j, s*wpj+c*wqj)
				}
				for i := 0; i < n; i++ {
					vip, viq := v.At(i, p), v.At(i, q)
					v.Set(i, p, c*vip-s*viq)
					v.Set(i, q, s*vip+c*viq)
				}
			}
		}
	}
	return nil, nil, ErrEigNoConvergence
}

func sortEigSym(vals []float64, v *Mat[float64]) {
	n := len(vals)
	for i := 1; i < n; i++ {
		for k := i; k > 0 && vals[k] < vals[k-1]; k-- {
			vals[k], vals[k-1] = vals[k-1], vals[k]
			for r := 0; r < v.Rows; r++ {
				a, b := v.At(r, k), v.At(r, k-1)
				v.Set(r, k, b)
				v.Set(r, k-1, a)
			}
		}
	}
}

// Eig computes the eigenvalues and right eigenvectors of a general real
// matrix by complex Hessenberg reduction followed by shifted QR iteration
// to Schur form. Eigenvector columns are normalized to unit 2-norm.
func Eig(a *Mat[float64]) (vals []complex128, vecs *Mat[complex128], err error) {
	return EigComplex(ToComplex(a))
}

// EigComplex computes eigenvalues and right eigenvectors of a general
// complex matrix.
func EigComplex(a *Mat[complex128]) (vals []complex128, vecs *Mat[complex128], err error) {
	n := a.Rows
	if n != a.Cols {
		return nil, nil, errors.New("dense: Eig requires a square matrix")
	}
	if n == 0 {
		return nil, NewMat[complex128](0, 0), nil
	}
	t, z, err := schur(a)
	if err != nil {
		return nil, nil, err
	}
	vals = make([]complex128, n)
	for i := range vals {
		vals[i] = t.At(i, i)
	}
	// Right eigenvectors of triangular T via back substitution, then
	// rotate back through the accumulated unitary Z.
	y := NewMat[complex128](n, n)
	for k := 0; k < n; k++ {
		lambda := vals[k]
		y.Set(k, k, 1)
		for i := k - 1; i >= 0; i-- {
			var sum complex128
			for j := i + 1; j <= k; j++ {
				sum += t.At(i, j) * y.At(j, k)
			}
			den := t.At(i, i) - lambda
			if cmplx.Abs(den) < 1e-300 {
				den = complex(1e-300, 0) // defective direction guard
			}
			y.Set(i, k, -sum/den)
		}
	}
	vecs = z.Mul(y)
	for j := 0; j < n; j++ {
		norm := 0.0
		for i := 0; i < n; i++ {
			norm += real(vecs.At(i, j) * cmplx.Conj(vecs.At(i, j)))
		}
		norm = math.Sqrt(norm)
		if norm > 0 {
			inv := complex(1/norm, 0)
			for i := 0; i < n; i++ {
				vecs.Set(i, j, vecs.At(i, j)*inv)
			}
		}
	}
	return vals, vecs, nil
}

// schur reduces a to upper triangular (complex Schur) form T = Qᴴ A Q via
// Hessenberg reduction and shifted QR with Givens rotations, accumulating
// and returning the unitary Q.
func schur(a *Mat[complex128]) (t, z *Mat[complex128], err error) {
	n := a.Rows
	h := a.Clone()
	z = Eye[complex128](n)

	// Householder reduction to upper Hessenberg form.
	for k := 0; k < n-2; k++ {
		x := make([]complex128, n-k-1)
		for i := k + 1; i < n; i++ {
			x[i-k-1] = h.At(i, k)
		}
		alpha := nrm2c(x)
		if alpha == 0 {
			continue
		}
		s := complex(1, 0)
		if x[0] != 0 {
			s = x[0] / complex(cmplx.Abs(x[0]), 0)
		}
		x[0] += s * complex(alpha, 0)
		vn := nrm2c(x)
		if vn == 0 {
			continue
		}
		for i := range x {
			x[i] /= complex(vn, 0)
		}
		// H ← P H P with P = I - 2 v vᴴ acting on rows/cols k+1..n-1.
		for j := 0; j < n; j++ {
			var hsum complex128
			for i := k + 1; i < n; i++ {
				hsum += cmplx.Conj(x[i-k-1]) * h.At(i, j)
			}
			hsum *= 2
			for i := k + 1; i < n; i++ {
				h.Set(i, j, h.At(i, j)-x[i-k-1]*hsum)
			}
		}
		for i := 0; i < n; i++ {
			var hsum complex128
			for j := k + 1; j < n; j++ {
				hsum += h.At(i, j) * x[j-k-1]
			}
			hsum *= 2
			for j := k + 1; j < n; j++ {
				h.Set(i, j, h.At(i, j)-hsum*cmplx.Conj(x[j-k-1]))
			}
		}
		for i := 0; i < n; i++ {
			var hsum complex128
			for j := k + 1; j < n; j++ {
				hsum += z.At(i, j) * x[j-k-1]
			}
			hsum *= 2
			for j := k + 1; j < n; j++ {
				z.Set(i, j, z.At(i, j)-hsum*cmplx.Conj(x[j-k-1]))
			}
		}
	}

	// Shifted QR iteration with deflation.
	const maxIterPerEig = 60
	hi := n - 1
	iter := 0
	cs := make([]complex128, n) // Givens cosines (real in principle, kept complex)
	ss := make([]complex128, n)
	for hi > 0 {
		// Deflate tiny subdiagonals.
		deflated := false
		for k := hi; k > 0; k-- {
			if cmplx.Abs(h.At(k, k-1)) <= 1e-15*(cmplx.Abs(h.At(k-1, k-1))+cmplx.Abs(h.At(k, k))) {
				h.Set(k, k-1, 0)
				if k == hi {
					hi--
					iter = 0
					deflated = true
					break
				}
			}
		}
		if deflated {
			continue
		}
		if hi == 0 {
			break
		}
		// Active block [lo..hi]: walk up to the nearest zero subdiagonal.
		lo := hi
		for lo > 0 && h.At(lo, lo-1) != 0 {
			lo--
		}
		iter++
		if iter > maxIterPerEig {
			return nil, nil, ErrEigNoConvergence
		}
		// Wilkinson shift from the trailing 2×2 of the active block.
		var mu complex128
		{
			a11 := h.At(hi-1, hi-1)
			a12 := h.At(hi-1, hi)
			a21 := h.At(hi, hi-1)
			a22 := h.At(hi, hi)
			tr := a11 + a22
			det := a11*a22 - a12*a21
			disc := cmplx.Sqrt(tr*tr - 4*det)
			l1 := (tr + disc) / 2
			l2 := (tr - disc) / 2
			if cmplx.Abs(l1-a22) < cmplx.Abs(l2-a22) {
				mu = l1
			} else {
				mu = l2
			}
			if iter%20 == 0 {
				// Exceptional shift to break symmetry cycles.
				ex := cmplx.Abs(h.At(hi, hi-1))
				if hi >= 2 {
					ex += cmplx.Abs(h.At(hi-1, hi-2))
				}
				mu = complex(ex, 0)
			}
		}
		// Explicit single-shift QR step on [lo..hi] via Givens rotations.
		for i := lo; i <= hi; i++ {
			h.Set(i, i, h.At(i, i)-mu)
		}
		for i := lo; i < hi; i++ {
			// Rotation zeroing h[i+1][i] against h[i][i].
			f, g := h.At(i, i), h.At(i+1, i)
			r := math.Hypot(cmplx.Abs(f), cmplx.Abs(g))
			if r == 0 {
				cs[i], ss[i] = 1, 0
				continue
			}
			c := complex(cmplx.Abs(f)/r, 0)
			var sgn complex128 = 1
			if f != 0 {
				sgn = f / complex(cmplx.Abs(f), 0)
			}
			s := sgn * cmplx.Conj(g) / complex(r, 0)
			cs[i], ss[i] = c, s
			for j := i; j < n; j++ {
				hij, hi1j := h.At(i, j), h.At(i+1, j)
				h.Set(i, j, c*hij+s*hi1j)
				h.Set(i+1, j, -cmplx.Conj(s)*hij+c*hi1j)
			}
		}
		for i := lo; i < hi; i++ {
			c, s := cs[i], ss[i]
			top := i + 2
			if top > hi {
				top = hi
			}
			for r := 0; r <= top; r++ {
				hri, hri1 := h.At(r, i), h.At(r, i+1)
				h.Set(r, i, c*hri+cmplx.Conj(s)*hri1)
				h.Set(r, i+1, -s*hri+c*hri1)
			}
			for r := 0; r < n; r++ {
				zri, zri1 := z.At(r, i), z.At(r, i+1)
				z.Set(r, i, c*zri+cmplx.Conj(s)*zri1)
				z.Set(r, i+1, -s*zri+c*zri1)
			}
		}
		for i := lo; i <= hi; i++ {
			h.Set(i, i, h.At(i, i)+mu)
		}
	}
	// Zero the strict lower triangle (numerically negligible by now).
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			h.Set(i, j, 0)
		}
	}
	return h, z, nil
}

func nrm2c(x []complex128) float64 {
	s := 0.0
	for _, v := range x {
		a := cmplx.Abs(v)
		s += a * a
	}
	return math.Sqrt(s)
}
