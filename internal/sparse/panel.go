package sparse

// PanelWidth is the number of right-hand sides one panel solve carries. A
// panel stores them interleaved row-major: lane k of row i lives at
// x[i*PanelWidth+k]. Each nonzero of a factor is then loaded once and
// applied to all lanes, which share one cache line, so a panel costs about
// one pass over the factor instead of PanelWidth. Eight float64 lanes are
// also two 256-bit registers: Cholesky.SolvePanel's forward and back passes
// run as AVX2 kernels on amd64 CPUs that have it (see lanes.go), lane for
// lane bit-identical to the Go passes cholForwardRef and cholBackRef.
const PanelWidth = 8

// PackPanel interleaves cols into the panel x of length n·PanelWidth, where
// n is the column length. A nil column, and every lane past len(cols), is a
// zero lane.
func PackPanel[T Scalar](x []T, cols [][]T) {
	const w = PanelWidth
	if len(cols) > w {
		panic("sparse: PackPanel given more than PanelWidth columns")
	}
	clear(x)
	for k, c := range cols {
		for i, v := range c {
			x[i*w+k] = v
		}
	}
}

// UnpackPanel copies lane k of the panel x into cols[k] for every non-nil
// cols[k].
func UnpackPanel[T Scalar](cols [][]T, x []T) {
	const w = PanelWidth
	if len(cols) > w {
		panic("sparse: UnpackPanel given more than PanelWidth columns")
	}
	for k, c := range cols {
		for i := range c {
			c[i] = x[i*w+k]
		}
	}
}

// lanesZero reports whether every lane of one panel row is exactly zero.
func lanesZero[T Scalar](z *[PanelWidth]T) bool {
	var zero T
	return z[0] == zero && z[1] == zero && z[2] == zero && z[3] == zero &&
		z[4] == zero && z[5] == zero && z[6] == zero && z[7] == zero
}

// SolvePanel solves A X = B in place for the PanelWidth right-hand sides
// interleaved in the panel x (see PanelWidth); w is scratch of the same
// length N·PanelWidth. Every lane runs SolveBuf's operations in SolveBuf's
// order, so each lane of the result equals SolveBuf on that column under
// ==. A row whose lanes are all zero is skipped, as SolveBuf skips a zero
// entry; a lane that is zero while others are not takes exact-zero updates,
// which can differ from SolveBuf only in the sign of a zero.
//
//pgmor:noalloc
func (lu *LU[T]) SolvePanel(x, w []T) {
	const pw = PanelWidth
	n := lu.n
	// w = Pr · b(q), lane by lane.
	for i := 0; i < n; i++ {
		r := *(*[pw]T)(x[lu.q[i]*pw:])
		*(*[pw]T)(w[lu.pinv[i]*pw:]) = r
	}
	// Forward solve L z = w (unit diagonal first per column).
	l := lu.l
	for j := 0; j < n; j++ {
		z := (*[pw]T)(w[j*pw:])
		if lanesZero(z) {
			continue
		}
		z0, z1, z2, z3, z4, z5, z6, z7 := z[0], z[1], z[2], z[3], z[4], z[5], z[6], z[7]
		rows := l.RowIdx[l.ColPtr[j]+1 : l.ColPtr[j+1]]
		vals := l.Val[l.ColPtr[j]+1 : l.ColPtr[j+1]]
		vals = vals[:len(rows)]
		for p, i := range rows {
			v := vals[p]
			r := w[i*pw : i*pw+pw : i*pw+pw]
			r[0] -= v * z0
			r[1] -= v * z1
			r[2] -= v * z2
			r[3] -= v * z3
			r[4] -= v * z4
			r[5] -= v * z5
			r[6] -= v * z6
			r[7] -= v * z7
		}
	}
	// Back solve U y = z (diagonal last per column).
	u := lu.u
	for j := n - 1; j >= 0; j-- {
		dp := u.ColPtr[j+1] - 1
		d := u.Val[dp]
		y := (*[pw]T)(w[j*pw:])
		y0, y1, y2, y3, y4, y5, y6, y7 := y[0]/d, y[1]/d, y[2]/d, y[3]/d, y[4]/d, y[5]/d, y[6]/d, y[7]/d
		y[0], y[1], y[2], y[3], y[4], y[5], y[6], y[7] = y0, y1, y2, y3, y4, y5, y6, y7
		if lanesZero(y) {
			continue
		}
		rows := u.RowIdx[u.ColPtr[j]:dp]
		vals := u.Val[u.ColPtr[j]:dp]
		vals = vals[:len(rows)]
		for p, i := range rows {
			v := vals[p]
			r := w[i*pw : i*pw+pw : i*pw+pw]
			r[0] -= v * y0
			r[1] -= v * y1
			r[2] -= v * y2
			r[3] -= v * y3
			r[4] -= v * y4
			r[5] -= v * y5
			r[6] -= v * y6
			r[7] -= v * y7
		}
	}
	// Undo the symmetric pre-ordering: x[q[i]] = y[i]. Each row moves as an
	// array through a local, which the compiler copies inline; a copy call
	// (or a direct array assignment, which may overlap) is a memmove call.
	for i := 0; i < n; i++ {
		r := *(*[pw]T)(w[i*pw:])
		*(*[pw]T)(x[lu.q[i]*pw:]) = r
	}
}

// SolvePanel solves A X = B in place for the PanelWidth right-hand sides
// interleaved in the panel x; w is scratch of the same length. Each lane
// equals SolveBuf on that column under ==, as for LU.SolvePanel.
//
//pgmor:noalloc
func (c *Cholesky) SolvePanel(x, w []float64) {
	const pw = PanelWidth
	n := c.n
	if len(x) != n*pw || len(w) != n*pw {
		panic("sparse: panel length mismatch")
	}
	// w = P·S·B.
	for i := 0; i < n; i++ {
		s := c.sig[i]
		b := (*[pw]float64)(x[c.q[i]*pw:])
		z := (*[pw]float64)(w[i*pw:])
		z[0], z[1], z[2], z[3], z[4], z[5], z[6], z[7] = s*b[0], s*b[1], s*b[2], s*b[3], s*b[4], s*b[5], s*b[6], s*b[7]
	}
	l := c.l
	cholPanel(l.ColPtr, l.RowIdx, l.Val, c.sig, w)
	for i := 0; i < n; i++ { // as in LU.SolvePanel
		z := *(*[pw]float64)(w[i*pw:])
		*(*[pw]float64)(x[c.q[i]*pw:]) = z
	}
}

// cholForwardRef solves L z = w in place on the panel w, L given by its
// CSC arrays with the diagonal first per column: the forward pass of
// Cholesky.SolvePanel in Go, the reference of its AVX2 kernel.
func cholForwardRef(colPtr, rowIdx []int, val, w []float64) {
	const pw = PanelWidth
	for j := range len(colPtr) - 1 {
		dp := colPtr[j]
		d := val[dp]
		z := (*[pw]float64)(w[j*pw:])
		z0, z1, z2, z3, z4, z5, z6, z7 := z[0]/d, z[1]/d, z[2]/d, z[3]/d, z[4]/d, z[5]/d, z[6]/d, z[7]/d
		z[0], z[1], z[2], z[3], z[4], z[5], z[6], z[7] = z0, z1, z2, z3, z4, z5, z6, z7
		if lanesZero(z) {
			continue
		}
		rows := rowIdx[dp+1 : colPtr[j+1]]
		vals := val[dp+1 : colPtr[j+1]]
		vals = vals[:len(rows)]
		for p, i := range rows {
			v := vals[p]
			r := w[i*pw : i*pw+pw : i*pw+pw]
			r[0] -= v * z0
			r[1] -= v * z1
			r[2] -= v * z2
			r[3] -= v * z3
			r[4] -= v * z4
			r[5] -= v * z5
			r[6] -= v * z6
			r[7] -= v * z7
		}
	}
}

// cholBackRef solves Lᵀ y = Σ·z in place on the panel w, Σ = diag(sig):
// the back pass of Cholesky.SolvePanel in Go, the reference of its AVX2
// kernel.
func cholBackRef(colPtr, rowIdx []int, val, sig, w []float64) {
	const pw = PanelWidth
	for j := len(colPtr) - 2; j >= 0; j-- {
		dp := colPtr[j]
		s, g := (*[pw]float64)(w[j*pw:]), sig[j]
		s0, s1, s2, s3, s4, s5, s6, s7 := g*s[0], g*s[1], g*s[2], g*s[3], g*s[4], g*s[5], g*s[6], g*s[7]
		rows := rowIdx[dp+1 : colPtr[j+1]]
		vals := val[dp+1 : colPtr[j+1]]
		vals = vals[:len(rows)]
		for p, i := range rows {
			v := vals[p]
			r := w[i*pw : i*pw+pw : i*pw+pw]
			s0 -= v * r[0]
			s1 -= v * r[1]
			s2 -= v * r[2]
			s3 -= v * r[3]
			s4 -= v * r[4]
			s5 -= v * r[5]
			s6 -= v * r[6]
			s7 -= v * r[7]
		}
		d := val[dp]
		s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7] = s0/d, s1/d, s2/d, s3/d, s4/d, s5/d, s6/d, s7/d
	}
}
