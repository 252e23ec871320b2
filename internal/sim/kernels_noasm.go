//go:build !amd64 || purego

package sim

func modalAccum(y []float64, z, r []complex128) {
	modalAccumRef(y, z, r)
}

func stepModes(zr, zi, u0, u1 []float64, er, ei, f0r, f0i, f1r, f1i float64) {
	stepModesRef(zr, zi, u0, u1, er, ei, f0r, f0i, f1r, f1i)
}

func accumBlock(yb, zr, zi []float64, res []complex128, q, p, ns int) {
	accumBlockRef(yb, zr, zi, res, q, p, ns)
}
