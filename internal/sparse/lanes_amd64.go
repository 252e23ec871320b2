//go:build amd64 && !purego

package sparse

import (
	"unsafe"

	"repro/internal/cpuid"
)

// AVX2 versions of the Krylov-phase panel kernels, selected at start-up when
// the CPU and OS support 256-bit vector state. Each kernel carries the
// PanelWidth lanes of a panel row in two YMM registers and runs the Go
// reference's per-lane IEEE 754 operations in the reference's order: VMULPD
// then VADDPD/VSUBPD, VDIVPD for the divisions by the factor's diagonal,
// never a fused multiply-add. Each lane of every result is therefore
// bit-identical to the …Ref kernel, and with it to the single-vector
// kernels. The forward solve keeps the reference's skip of a row whose lanes
// are all ±0, tested on the lane bits with the sign bit masked off.

//go:noescape
func laneDotsAVX2(d *[PanelWidth]float64, q, x []float64)

//go:noescape
func laneAxpyDotAVX2(d *[PanelWidth]float64, x []float64, a *[PanelWidth]float64, p, q []float64)

//go:noescape
func mulPanelRowsAVX2(rowPtr, colIdx []int, val, dst, x []float64)

//go:noescape
func cholForwardAVX2(colPtr, rowIdx []int, val, w []float64)

//go:noescape
func cholBackAVX2(colPtr, rowIdx []int, val, sig, w []float64)

var useAVX2 = cpuid.AVX2

func laneDots(d *[PanelWidth]float64, q, x []float64) {
	if useAVX2 {
		laneDotsAVX2(d, q, x)
		return
	}
	laneDotsRef(d, q, x)
}

func laneAxpyDot(d *[PanelWidth]float64, x []float64, a *[PanelWidth]float64, p, q []float64) {
	if useAVX2 {
		laneAxpyDotAVX2(d, x, a, p, q)
		return
	}
	laneAxpyDotRef(d, x, a, p, q)
}

func mulPanelRows[T Scalar](rowPtr, colIdx []int, val, dst, x []T) {
	// An 8-byte Scalar is float64 or a type defined on it: same bits, same
	// arithmetic, so the float64 kernel runs on the same memory.
	var zero T
	if useAVX2 && unsafe.Sizeof(zero) == 8 {
		mulPanelRowsAVX2(rowPtr, colIdx, asFloat64(val), asFloat64(dst), asFloat64(x))
		return
	}
	mulPanelRowsRef(rowPtr, colIdx, val, dst, x)
}

// asFloat64 views an 8-byte Scalar slice as []float64.
func asFloat64[T Scalar](s []T) []float64 {
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}

func cholPanel(colPtr, rowIdx []int, val, sig, w []float64) {
	if useAVX2 {
		cholForwardAVX2(colPtr, rowIdx, val, w)
		cholBackAVX2(colPtr, rowIdx, val, sig, w)
		return
	}
	cholForwardRef(colPtr, rowIdx, val, w)
	cholBackRef(colPtr, rowIdx, val, sig, w)
}
