//go:build amd64 && !purego

package sim

import "repro/internal/cpuid"

// AVX2 version of the modal output kernel, selected at startup when the
// CPU and OS support 256-bit vector state. The vector code uses only
// VMULPD/VADDPD and VHSUBPD (a per-element IEEE subtract of adjacent lanes)
// — per-element IEEE 754 operations in the exact order of the Go reference,
// never fused multiply-add — so each output computes bit-for-bit what the
// scalar loop computes.

//go:noescape
func modalAccumAVX2(y []float64, z, r []complex128)

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
