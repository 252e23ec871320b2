package sim

import "testing"

// kernelVectors builds a 2-mode, 3-output block's complex residues, one
// session's complex coordinates z, and an output row y.
func kernelVectors() (y []float64, res, z []complex128) {
	const q, p = 2, 3
	y = make([]float64, p)
	res = make([]complex128, q*p)
	z = make([]complex128, q)
	for i := range res {
		res[i] = complex(1/float64(i+2), 0.5/float64(i+2))
	}
	for k := range z {
		z[k] = complex(0.25*float64(k+1), -0.125*float64(k+1))
	}
	return
}

// TestKernelRefAllocs: the pure-Go reference kernel is allocation-free.
//
//pgmor:alloctest modalAccumRef
func TestKernelRefAllocs(t *testing.T) {
	y, res, z := kernelVectors()
	if allocs := testing.AllocsPerRun(100, func() { modalAccumRef(y, z, res) }); allocs != 0 {
		t.Errorf("modalAccumRef allocates %.1f times per call, want 0", allocs)
	}
}
