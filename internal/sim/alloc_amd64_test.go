package sim

import "testing"

// TestKernelDispatchAllocs: the amd64 dispatch wrapper (AVX2 or reference,
// whichever this CPU selects) is allocation-free.
//
//pgmor:alloctest modalAccum
func TestKernelDispatchAllocs(t *testing.T) {
	y, res, z := kernelVectors()
	if allocs := testing.AllocsPerRun(100, func() { modalAccum(y, z, res) }); allocs != 0 {
		t.Errorf("modalAccum allocates %.1f times per call, want 0", allocs)
	}
}
