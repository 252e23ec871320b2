// Package asmfix pairs Go stubs with fixture assembly carrying one
// violation per policy rule, plus one clean kernel that must pass.
package asmfix

// goodKernel scales x by a with allowlisted AVX opcodes only.
func goodKernel(x []float64, a float64)

// fmaKernel smuggles in a fused multiply-add.
func fmaKernel(x []float64, a float64)

// badOpKernel uses a floating-point opcode outside the allowlist.
func badOpKernel(x []float64, a float64)

// divKernel divides by a (allowlisted) and then smuggles in an FMA.
func divKernel(x []float64, a float64)

// cplxKernel multiplies complex pairs by a broadcast complex scalar and
// subtracts adjacent lanes (all allowlisted), then smuggles in an FMA.
func cplxKernel(x []float64, z []complex128)

// noVzero touches Y registers but returns without VZEROUPPER.
func noVzero(x []float64)

// wrongSize declares 32 bytes of ABI0 arguments; its TEXT says 24.
func wrongSize(x []float64, a float64)

// orphanStub has no TEXT block at all.
func orphanStub(x []float64) // want "has no TEXT block"
