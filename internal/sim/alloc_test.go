package sim

import "testing"

// kernelVectors builds SoA state shaped like a 2-mode, 3-output,
// 8-session block, plus the block's complex residues and one session's
// complex coordinates z.
func kernelVectors() (y, zr, zi []float64, res, z []complex128, u0, u1 []float64) {
	const q, p, ns = 2, 3, 8
	y = make([]float64, p*ns)
	zr = make([]float64, q*ns)
	zi = make([]float64, q*ns)
	res = make([]complex128, q*p)
	z = make([]complex128, q)
	u0 = make([]float64, ns)
	u1 = make([]float64, ns)
	for i := range zr {
		zr[i] = 0.25 * float64(i+1)
		zi[i] = -0.125 * float64(i+1)
	}
	for i := range res {
		res[i] = complex(1/float64(i+2), 0.5/float64(i+2))
	}
	for k := range z {
		z[k] = complex(zr[k*ns], zi[k*ns])
	}
	for i := range u0 {
		u0[i] = float64(i)
		u1[i] = float64(i) + 0.5
	}
	return
}

// TestKernelRefAllocs: the pure-Go reference kernels are allocation-free.
//
//pgmor:alloctest modalAccumRef
//pgmor:alloctest accumBlockRef
//pgmor:alloctest stepModesRef
func TestKernelRefAllocs(t *testing.T) {
	y, zr, zi, res, z, u0, u1 := kernelVectors()
	const q, p, ns = 2, 3, 8
	cases := map[string]func(){
		"modalAccumRef": func() { modalAccumRef(y[:p], z, res) },
		"accumBlockRef": func() { accumBlockRef(y, zr, zi, res, q, p, ns) },
		"stepModesRef": func() {
			stepModesRef(zr[:ns], zi[:ns], u0, u1, 0.9, 0.1, 0.01, 0.02, 0.03, 0.04)
		},
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", name, allocs)
		}
	}
}

// TestGroupAdvanceFusedAllocs pins the fused multi-session advance:
// per Advance the only allocations are the per-member Result containers —
// O(members), never O(steps) or O(modes).
//
//pgmor:alloctest advanceGroupShardFused
func TestGroupAdvanceFusedAllocs(t *testing.T) {
	_, ms := modalTestSystem(t)
	var members []*Stepper
	var inputs []Input
	// groupMinLanes members: the narrowest group that runs the fused path.
	for i := 0; i < groupMinLanes; i++ {
		st, err := NewStepper(ms, StepperOptions{Dt: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, st)
		inputs = append(inputs, UniformInput(Sine{Amplitude: 1, Freq: 0.5}))
	}
	g, err := NewStepperGroup(members, GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for _, n := range []int{16, 256} {
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := g.Advance(n, inputs); err != nil {
				t.Fatal(err)
			}
		})
		// results slice + 4 per member (Result, T, Y, row backing), with a
		// little slack for runtime noise; the bound must not move with n.
		if want := float64(1 + 4*len(members) + 4); allocs > want {
			t.Fatalf("group Advance(%d) allocates %.1f times per call, want O(members) ≤ %.0f", n, allocs, want)
		}
	}
}
