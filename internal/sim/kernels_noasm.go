//go:build !amd64 || purego

package sim

func modalAccum(y []float64, z, r []complex128) {
	modalAccumRef(y, z, r)
}
