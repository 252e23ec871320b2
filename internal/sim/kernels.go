package sim

// Modal-advance inner kernel. modalAccum is the output kernel of every
// session advance: one modal block's residue rows
// (lti.ModalBlock.R.Data, mode-major [k*p+r]) applied in place to the
// block's modal coordinates.
//
// Numerical contract: the kernel performs, per output, exactly the
// multiply/add/subtract sequence written in the Go reference below, so the
// vectorized result equals the reference bit for bit (the amd64 assembly
// uses only per-element IEEE mul/add/sub, never FMA contraction, for the
// same reason).

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
