package dense

import "math"

// SVD computes the full thin singular value decomposition A = U·diag(s)·Vᵀ
// of a real m×n matrix using one-sided Jacobi rotations. U is m×k and V is
// n×k with k = min(m, n); singular values are returned in descending order.
func SVD(a *Mat[float64]) (u *Mat[float64], s []float64, v *Mat[float64]) {
	if a.Rows < a.Cols {
		// Factor the transpose and swap factors: A = U S Vᵀ ⇔ Aᵀ = V S Uᵀ.
		vt, st, ut := SVD(a.T())
		return ut, st, vt
	}
	m, n := a.Rows, a.Cols
	w := a.Clone()
	vm := Eye[float64](n)

	const maxSweeps = 60
	tol := 1e-14
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				var app, aqq, apq float64
				for i := 0; i < m; i++ {
					wp, wq := w.At(i, p), w.At(i, q)
					app += wp * wp
					aqq += wq * wq
					apq += wp * wq
				}
				if math.Abs(apq) <= tol*math.Sqrt(app*aqq) || apq == 0 {
					continue
				}
				off += math.Abs(apq)
				// Jacobi rotation zeroing the (p,q) entry of AᵀA.
				zeta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				c := 1 / math.Sqrt(1+t*t)
				sn := c * t
				for i := 0; i < m; i++ {
					wp, wq := w.At(i, p), w.At(i, q)
					w.Set(i, p, c*wp-sn*wq)
					w.Set(i, q, sn*wp+c*wq)
				}
				for i := 0; i < n; i++ {
					vp, vq := vm.At(i, p), vm.At(i, q)
					vm.Set(i, p, c*vp-sn*vq)
					vm.Set(i, q, sn*vp+c*vq)
				}
			}
		}
		if off == 0 {
			break
		}
	}

	// Column norms are the singular values.
	s = make([]float64, n)
	u = NewMat[float64](m, n)
	type sv struct {
		val float64
		idx int
	}
	svs := make([]sv, n)
	for j := 0; j < n; j++ {
		norm := 0.0
		for i := 0; i < m; i++ {
			norm += w.At(i, j) * w.At(i, j)
		}
		svs[j] = sv{math.Sqrt(norm), j}
	}
	// Sort descending by singular value (insertion sort; n is small).
	for i := 1; i < n; i++ {
		for k := i; k > 0 && svs[k].val > svs[k-1].val; k-- {
			svs[k], svs[k-1] = svs[k-1], svs[k]
		}
	}
	v = NewMat[float64](n, n)
	for out, e := range svs {
		s[out] = e.val
		for i := 0; i < m; i++ {
			if e.val > 0 {
				u.Set(i, out, w.At(i, e.idx)/e.val)
			}
		}
		for i := 0; i < n; i++ {
			v.Set(i, out, vm.At(i, e.idx))
		}
	}
	return u, s, v
}
