//go:build !amd64 || purego

package sparse

func laneDots(d *[PanelWidth]float64, q, x []float64) {
	laneDotsRef(d, q, x)
}

func laneAxpyDot(d *[PanelWidth]float64, x []float64, a *[PanelWidth]float64, p, q []float64) {
	laneAxpyDotRef(d, x, a, p, q)
}

func mulPanelRows[T Scalar](rowPtr, colIdx []int, val, dst, x []T) {
	mulPanelRowsRef(rowPtr, colIdx, val, dst, x)
}

func cholPanel(colPtr, rowIdx []int, val, sig, w []float64) {
	cholForwardRef(colPtr, rowIdx, val, w)
	cholBackRef(colPtr, rowIdx, val, sig, w)
}
