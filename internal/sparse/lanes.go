package sparse

import "math"

// Lane kernels: the length-n vector operations of a Krylov chain, run on
// PanelWidth chains at once in the interleaved panel layout (see
// PanelWidth). Each row is loaded once for all lanes and each lane sums
// into its own accumulator, so the lanes of a row are independent
// operations instead of one dependent chain per vector. Every lane runs its
// single-vector kernel's operations in that kernel's element order (Dot,
// Axpy, Nrm2, ScaleVec, CSR.MatVec), so each lane's result is
// bit-identical to the single-vector kernel on that lane, and lanes never
// mix: a NaN in one lane stays in that lane.
//
// The kernels that dominate the Krylov phase, LaneDots, LaneAxpyDot and the
// float64 MulPanelRows (with MulPanel), have AVX2 versions on amd64
// (lanes_amd64.s), picked at start-up when the CPU has AVX2. They carry a
// row's eight lanes in two 256-bit registers and run each lane's operations
// in the Go loop's order without fused multiply-add, so every lane equals
// the …Ref Go loop, which stays as the reference and as the kernel on other
// CPUs and under the purego build tag. LaneAxpyNrm2, LaneNrm2 and LaneScale
// are Go only.

// checkLanes panics unless x holds whole panel rows and y has its length.
func checkLanes(x, y []float64) {
	if len(x)%PanelWidth != 0 || len(y) != len(x) {
		panic("sparse: panel length mismatch")
	}
}

// LaneDots continues each lane's running dot product d[k] with lane k of q
// times lane k of x, in row order. From d = 0 it is Dot on each lane, and
// calls on consecutive row ranges chain into exactly one call on their
// concatenation.
//
//pgmor:noalloc
func LaneDots(d *[PanelWidth]float64, q, x []float64) {
	checkLanes(x, q)
	laneDots(d, q, x)
}

// laneDotsRef is LaneDots in Go: the reference the AVX2 kernel matches bit
// for bit, and the kernel wherever AVX2 is not used.
func laneDotsRef(d *[PanelWidth]float64, q, x []float64) {
	const pw = PanelWidth
	s0, s1, s2, s3, s4, s5, s6, s7 := d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]
	for len(x) >= pw {
		a := (*[pw]float64)(q)
		b := (*[pw]float64)(x)
		s0 += a[0] * b[0]
		s1 += a[1] * b[1]
		s2 += a[2] * b[2]
		s3 += a[3] * b[3]
		s4 += a[4] * b[4]
		s5 += a[5] * b[5]
		s6 += a[6] * b[6]
		s7 += a[7] * b[7]
		q, x = q[pw:], x[pw:]
	}
	d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = s0, s1, s2, s3, s4, s5, s6, s7
}

// LaneAxpyDot adds a[k]·(lane k of p) to lane k of x, then sets d[k] to the
// dot product of lane k of q with the updated lane k of x, in one pass: an
// Axpy followed by a Dot on each lane. q may alias p; neither may alias x.
//
//pgmor:noalloc
func LaneAxpyDot(d *[PanelWidth]float64, x []float64, a *[PanelWidth]float64, p, q []float64) {
	checkLanes(x, p)
	checkLanes(x, q)
	laneAxpyDot(d, x, a, p, q)
}

// laneAxpyDotRef is LaneAxpyDot in Go, the reference of its AVX2 kernel.
func laneAxpyDotRef(d *[PanelWidth]float64, x []float64, a *[PanelWidth]float64, p, q []float64) {
	const pw = PanelWidth
	c := *a
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	for len(x) >= pw {
		r := (*[pw]float64)(x)
		u := (*[pw]float64)(p)
		v := (*[pw]float64)(q)
		r0 := r[0] + c[0]*u[0]
		r[0] = r0
		s0 += v[0] * r0
		r1 := r[1] + c[1]*u[1]
		r[1] = r1
		s1 += v[1] * r1
		r2 := r[2] + c[2]*u[2]
		r[2] = r2
		s2 += v[2] * r2
		r3 := r[3] + c[3]*u[3]
		r[3] = r3
		s3 += v[3] * r3
		r4 := r[4] + c[4]*u[4]
		r[4] = r4
		s4 += v[4] * r4
		r5 := r[5] + c[5]*u[5]
		r[5] = r5
		s5 += v[5] * r5
		r6 := r[6] + c[6]*u[6]
		r[6] = r6
		s6 += v[6] * r6
		r7 := r[7] + c[7]*u[7]
		r[7] = r7
		s7 += v[7] * r7
		x, p, q = x[pw:], p[pw:], q[pw:]
	}
	d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = s0, s1, s2, s3, s4, s5, s6, s7
}

// LaneAxpyNrm2 adds a[k]·(lane k of p) to lane k of x, then sets d[k] to
// the Euclidean norm of the updated lane k, in one pass: an Axpy followed
// by Nrm2 on each lane. p must not alias x.
//
//pgmor:noalloc
func LaneAxpyNrm2(d *[PanelWidth]float64, x []float64, a *[PanelWidth]float64, p []float64) {
	const pw = PanelWidth
	checkLanes(x, p)
	c := *a
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	for len(x) >= pw {
		r := (*[pw]float64)(x)
		u := (*[pw]float64)(p)
		r0 := r[0] + c[0]*u[0]
		r[0] = r0
		s0 += r0 * r0
		r1 := r[1] + c[1]*u[1]
		r[1] = r1
		s1 += r1 * r1
		r2 := r[2] + c[2]*u[2]
		r[2] = r2
		s2 += r2 * r2
		r3 := r[3] + c[3]*u[3]
		r[3] = r3
		s3 += r3 * r3
		r4 := r[4] + c[4]*u[4]
		r[4] = r4
		s4 += r4 * r4
		r5 := r[5] + c[5]*u[5]
		r[5] = r5
		s5 += r5 * r5
		r6 := r[6] + c[6]*u[6]
		r[6] = r6
		s6 += r6 * r6
		r7 := r[7] + c[7]*u[7]
		r[7] = r7
		s7 += r7 * r7
		x, p = x[pw:], p[pw:]
	}
	*d = [pw]float64{math.Sqrt(s0), math.Sqrt(s1), math.Sqrt(s2), math.Sqrt(s3),
		math.Sqrt(s4), math.Sqrt(s5), math.Sqrt(s6), math.Sqrt(s7)}
}

// LaneNrm2 sets d[k] to the Euclidean norm of lane k of x: Nrm2 on each
// lane.
//
//pgmor:noalloc
func LaneNrm2(d *[PanelWidth]float64, x []float64) {
	const pw = PanelWidth
	checkLanes(x, x)
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	for len(x) >= pw {
		r := (*[pw]float64)(x)
		s0 += r[0] * r[0]
		s1 += r[1] * r[1]
		s2 += r[2] * r[2]
		s3 += r[3] * r[3]
		s4 += r[4] * r[4]
		s5 += r[5] * r[5]
		s6 += r[6] * r[6]
		s7 += r[7] * r[7]
		x = x[pw:]
	}
	*d = [pw]float64{math.Sqrt(s0), math.Sqrt(s1), math.Sqrt(s2), math.Sqrt(s3),
		math.Sqrt(s4), math.Sqrt(s5), math.Sqrt(s6), math.Sqrt(s7)}
}

// LaneScale multiplies lane k of x by s[k]: ScaleVec on each lane.
//
//pgmor:noalloc
func LaneScale(x []float64, s *[PanelWidth]float64) {
	const pw = PanelWidth
	checkLanes(x, x)
	c := *s
	for len(x) >= pw {
		r := (*[pw]float64)(x)
		r[0] *= c[0]
		r[1] *= c[1]
		r[2] *= c[2]
		r[3] *= c[3]
		r[4] *= c[4]
		r[5] *= c[5]
		r[6] *= c[6]
		r[7] *= c[7]
		x = x[pw:]
	}
}

// MulPanel computes dst = A·X for the PanelWidth columns interleaved in the
// panel x (length cols·PanelWidth) into the panel dst (length
// rows·PanelWidth): MatVec on each lane, in one pass over A. dst and x
// must not alias.
//
//pgmor:noalloc
func (a *CSR[T]) MulPanel(dst, x []T) {
	a.MulPanelRows(dst, x, 0, a.rows)
}

// MulPanelRows is MulPanel restricted to rows lo..hi-1 of A: dst (length
// (hi-lo)·PanelWidth) receives those rows of A·X.
//
//pgmor:noalloc
func (a *CSR[T]) MulPanelRows(dst, x []T, lo, hi int) {
	if lo < 0 || hi > a.rows || lo > hi || len(dst) != (hi-lo)*PanelWidth || len(x) != a.cols*PanelWidth {
		panic("sparse: CSR MulPanel dimension mismatch")
	}
	mulPanelRows(a.RowPtr[lo:hi+1], a.ColIdx, a.Val, dst, x)
}

// mulPanelRowsRef is MulPanelRows in Go over the rows whose extents rowPtr
// holds (one more entry than rows): the reference of the float64 AVX2
// kernel, and the kernel for complex128.
func mulPanelRowsRef[T Scalar](rowPtr, colIdx []int, val, dst, x []T) {
	const pw = PanelWidth
	for i := range len(rowPtr) - 1 {
		var s0, s1, s2, s3, s4, s5, s6, s7 T
		cols := colIdx[rowPtr[i]:rowPtr[i+1]]
		vals := val[rowPtr[i]:rowPtr[i+1]]
		vals = vals[:len(cols)]
		for p, j := range cols {
			v := vals[p]
			r := (*[pw]T)(x[j*pw:])
			s0 += v * r[0]
			s1 += v * r[1]
			s2 += v * r[2]
			s3 += v * r[3]
			s4 += v * r[4]
			s5 += v * r[5]
			s6 += v * r[6]
			s7 += v * r[7]
		}
		o := (*[pw]T)(dst[i*pw:])
		o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
}
