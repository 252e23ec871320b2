package sim

// Modal-advance inner kernels. modalAccum is the single-session output
// kernel: one block's residue rows applied to its modal coordinates. The
// fused group advance (group.go) splits the per-mode coordinates and drives
// into separate real/imaginary float64 arrays with sessions innermost, so
// accumBlock and stepModes stream contiguous same-type data across sessions
// — the layout SIMD wants. Both read a block's complex residue rows
// (lti.ModalBlock.R.Data, mode-major [k*p+r]) in place.
//
// Numerical contract: every kernel performs, per output (and per session
// lane), exactly the multiply/add/subtract sequence written in the Go
// reference below — the same operation order the scalar Stepper uses per
// step — so vectorized results equal the reference bit for bit (the amd64
// assembly versions use only per-element IEEE mul/add/sub, never FMA
// contraction, for the same reason). The group kernels drop the zₖ = 0 skip
// of the single-session path; dropping a complex-arithmetic identity like
// x−0·w = x can flip the sign of an exact zero but never changes a value,
// which is why the group's equivalence tests compare values, not bit
// patterns.

// modalAccumRef accumulates one modal block's output contribution for one
// session: for every mode k in ascending order with zₖ ≠ 0 and every output
// r, y[r] += Re(r[k*p+r]·zₖ) with p = len(y) — the real part of Go's complex
// product, re·re − im·im, then the add.
//
//pgmor:noalloc
func modalAccumRef(y []float64, z, r []complex128) {
	p := len(y)
	for k, zk := range z {
		if zk == 0 {
			continue
		}
		row := r[k*p : (k+1)*p]
		for i := range y {
			y[i] += real(row[i] * zk)
		}
	}
}

// accumBlockRef accumulates one modal block's residue contributions into the
// row-major output batch: for every mode k and output row r,
// yb[r*ns+s] += zr[k*ns+s]*Re(res[k*p+r]) - zi[k*ns+s]*Im(res[k*p+r]).
// One call per block, so the assembly version pays one call and one bounds
// check per block instead of per (mode, row).
//
//pgmor:noalloc
func accumBlockRef(yb, zr, zi []float64, res []complex128, q, p, ns int) {
	for k := 0; k < q; k++ {
		zrk := zr[k*ns : (k+1)*ns]
		zik := zi[k*ns : (k+1)*ns]
		for r := 0; r < p; r++ {
			a, c := real(res[k*p+r]), imag(res[k*p+r])
			y := yb[r*ns : (r+1)*ns]
			for s := range y {
				y[s] += zrk[s]*a - zik[s]*c
			}
		}
	}
}

// stepModesRef advances one mode across all sessions:
//
//	zr' = er*zr − ei*zi + u0*f0r + u1*f1r
//	zi' = er*zi + ei*zr + u0*f0i + u1*f1i
//
// — the split form of z' = e^{λh}·z + cu0·fNow + cu1·fNxt with real-valued
// drives, accumulated strictly left to right.
//
//pgmor:noalloc
func stepModesRef(zr, zi, u0, u1 []float64, er, ei, f0r, f0i, f1r, f1i float64) {
	zi = zi[:len(zr)]
	u0 = u0[:len(zr)]
	u1 = u1[:len(zr)]
	for i := range zr {
		a, b := zr[i], zi[i]
		tr := er*a - ei*b
		tr += u0[i] * f0r
		tr += u1[i] * f1r
		ti := er*b + ei*a
		ti += u0[i] * f0i
		ti += u1[i] * f1i
		zr[i] = tr
		zi[i] = ti
	}
}
