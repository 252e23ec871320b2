package sim

import "testing"

// TestKernelDispatchAllocs: the amd64 dispatch wrappers (AVX2 or reference,
// whichever this CPU selects) are allocation-free.
//
//pgmor:alloctest modalAccum
//pgmor:alloctest stepModes
//pgmor:alloctest accumBlock
func TestKernelDispatchAllocs(t *testing.T) {
	y, zr, zi, res, z, u0, u1 := kernelVectors()
	const q, p, ns = 2, 3, 8
	cases := map[string]func(){
		"modalAccum": func() { modalAccum(y[:p], z, res) },
		"accumBlock": func() { accumBlock(y, zr, zi, res, q, p, ns) },
		"stepModes": func() {
			stepModes(zr[:ns], zi[:ns], u0, u1, 0.9, 0.1, 0.01, 0.02, 0.03, 0.04)
		},
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", name, allocs)
		}
	}
}
