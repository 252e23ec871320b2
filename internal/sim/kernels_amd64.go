//go:build amd64 && !purego

package sim

import "repro/internal/cpuid"

// AVX2 versions of the modal-advance kernels, selected at startup when the
// CPU and OS support 256-bit vector state. The vector code uses only
// VMULPD/VADDPD/VSUBPD and VHSUBPD (a per-element IEEE subtract of adjacent
// lanes) — per-element IEEE 754 operations in the exact order of the Go
// reference, never fused multiply-add — so each output computes bit-for-bit
// what the scalar loop computes.

//go:noescape
func modalAccumAVX2(y []float64, z, r []complex128)

//go:noescape
func stepModesAVX2(zr, zi, u0, u1 []float64, er, ei, f0r, f0i, f1r, f1i float64)

//go:noescape
func accumBlockAVX2(yb, zr, zi []float64, res []complex128, q, p, ns int)

var useAVX2 = cpuid.AVX2

//pgmor:noalloc
func modalAccum(y []float64, z, r []complex128) {
	if useAVX2 {
		// The assembly walks raw pointers; keep the slice-shape invariant
		// it assumes checked here.
		if len(r) < len(z)*len(y) {
			panic("sim: modalAccum: short residue slice")
		}
		modalAccumAVX2(y, z, r)
		return
	}
	modalAccumRef(y, z, r)
}

//pgmor:noalloc
func stepModes(zr, zi, u0, u1 []float64, er, ei, f0r, f0i, f1r, f1i float64) {
	if useAVX2 {
		stepModesAVX2(zr, zi, u0, u1, er, ei, f0r, f0i, f1r, f1i)
		return
	}
	stepModesRef(zr, zi, u0, u1, er, ei, f0r, f0i, f1r, f1i)
}

//pgmor:noalloc
func accumBlock(yb, zr, zi []float64, res []complex128, q, p, ns int) {
	if useAVX2 {
		// The assembly walks raw pointers; keep the slice-shape invariants
		// it assumes checked in one place.
		if len(zr) < q*ns || len(zi) < q*ns || len(yb) < p*ns || len(res) < q*p {
			panic("sim: accumBlock: short slice")
		}
		accumBlockAVX2(yb, zr, zi, res, q, p, ns)
		return
	}
	accumBlockRef(yb, zr, zi, res, q, p, ns)
}
