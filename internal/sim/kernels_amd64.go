//go:build amd64 && !purego

package sim

import "repro/internal/cpuid"

// AVX2 versions of the fused-group kernels, selected at startup when the
// CPU and OS support 256-bit vector state. The vector code uses only
// VMULPD/VADDPD/VSUBPD — per-lane IEEE 754 operations in the exact order of
// the Go reference, never fused multiply-add — so each session lane
// computes bit-for-bit what the scalar loop computes.

//go:noescape
func axpyRealAVX2(y, zr, zi []float64, a, c float64)

//go:noescape
func stepModesAVX2(zr, zi, u0, u1 []float64, er, ei, f0r, f0i, f1r, f1i float64)

//go:noescape
func accumBlockAVX2(yb, zr, zi, rr, ri []float64, q, p, ns int)

var useAVX2 = cpuid.AVX2

//pgmor:noalloc
func axpyReal(y, zr, zi []float64, a, c float64) {
	if useAVX2 && len(y) >= 8 {
		axpyRealAVX2(y, zr, zi, a, c)
		return
	}
	axpyRealRef(y, zr, zi, a, c)
}

//pgmor:noalloc
func stepModes(zr, zi, u0, u1 []float64, er, ei, f0r, f0i, f1r, f1i float64) {
	if useAVX2 && len(zr) >= 4 {
		stepModesAVX2(zr, zi, u0, u1, er, ei, f0r, f0i, f1r, f1i)
		return
	}
	stepModesRef(zr, zi, u0, u1, er, ei, f0r, f0i, f1r, f1i)
}

//pgmor:noalloc
func accumBlock(yb, zr, zi, rr, ri []float64, q, p, ns int) {
	if useAVX2 && ns >= 4 {
		// The assembly walks raw pointers; keep the slice-shape invariants
		// it assumes checked in one place.
		if len(zr) < q*ns || len(zi) < q*ns || len(yb) < p*ns || len(rr) < q*p || len(ri) < q*p {
			panic("sim: accumBlock: short slice")
		}
		accumBlockAVX2(yb, zr, zi, rr, ri, q, p, ns)
		return
	}
	accumBlockRef(yb, zr, zi, rr, ri, q, p, ns)
}
