package sim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/lti"
	"repro/internal/sparse"
)

func TestSourceWaveforms(t *testing.T) {
	if DC(3).At(99) != 3 {
		t.Error("DC")
	}
	s := Step{Amplitude: 2, Delay: 1}
	if s.At(0.5) != 0 || s.At(1) != 2 {
		t.Error("Step")
	}
	p := Pulse{Low: 0, High: 1, Delay: 1, Rise: 1, Fall: 1, Width: 2, Period: 10}
	cases := map[float64]float64{0: 0, 1.5: 0.5, 2.5: 1, 4.5: 0.5, 6: 0, 11.5: 0.5}
	for tt, want := range cases {
		if got := p.At(tt); math.Abs(got-want) > 1e-12 {
			t.Errorf("Pulse.At(%g) = %g, want %g", tt, got, want)
		}
	}
	sine := Sine{Offset: 1, Amplitude: 2, Freq: 0.25, Delay: 0}
	if got := sine.At(1); math.Abs(got-3) > 1e-12 {
		t.Errorf("Sine.At(1) = %g, want 3", got)
	}
	pwl, err := NewPWL([]float64{0, 1, 2}, []float64{0, 10, 10})
	if err != nil {
		t.Fatal(err)
	}
	if pwl.At(-1) != 0 || pwl.At(0.5) != 5 || pwl.At(3) != 10 {
		t.Error("PWL interpolation")
	}
	if _, err := NewPWL([]float64{1, 0}, []float64{0, 1}); err == nil {
		t.Error("unsorted PWL accepted")
	}
	if _, err := NewPWL([]float64{1}, []float64{}); err == nil {
		t.Error("ragged PWL accepted")
	}
}

// rcAnalytic builds the 1-node RC system and checks the step response
// v(t) = R·I·(1 - e^{-t/RC}) for both integration methods.
func TestTransientRCAnalytic(t *testing.T) {
	r, c := 100.0, 1e-9
	cm := sparse.NewCOO[float64](1, 1)
	cm.Add(0, 0, c)
	gm := sparse.NewCOO[float64](1, 1)
	gm.Add(0, 0, -1/r)
	bm := sparse.NewCOO[float64](1, 1)
	bm.Add(0, 0, 1)
	lm := sparse.NewCOO[float64](1, 1)
	lm.Add(0, 0, 1)
	sys, err := lti.NewSparseSystem(cm.ToCSR(), gm.ToCSR(), bm.ToCSR(), lm.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	tau := r * c
	iAmp := 1e-3
	for _, method := range []Method{BackwardEuler, Trapezoidal} {
		res, err := SimulateSparse(sys, TransientOptions{
			Method: method,
			Dt:     tau / 100,
			T:      5 * tau,
			Input:  UniformInput(DC(iAmp)),
		})
		if err != nil {
			t.Fatal(err)
		}
		maxRel := 0.0
		for k, tt := range res.T {
			want := r * iAmp * (1 - math.Exp(-tt/tau))
			got := res.Y[k][0]
			if want > 1e-6 {
				if rel := math.Abs(got-want) / want; rel > maxRel {
					maxRel = rel
				}
			}
		}
		limit := 0.02 // BE first order at h = τ/100
		if method == Trapezoidal {
			limit = 0.001
		}
		if maxRel > limit {
			t.Errorf("%v: max relative error %.4f exceeds %.4f", method, maxRel, limit)
		}
	}
}

func gridSystem(t testing.TB) *lti.SparseSystem {
	t.Helper()
	cfg := grid.Config{Name: "t", NX: 8, NY: 8, Layers: 2, Ports: 5, Pads: 2,
		SheetR: 0.05, LayerRScale: 2, ViaR: 0.5, ViaPitch: 3, NodeC: 50e-15,
		PadR: 0.1, PadL: 0.5e-9, Variation: 0.2, Seed: 7}
	m, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := lti.NewSparseSystem(m.C, m.G, m.B, m.L)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestROMTransientMatchesFull is the end-to-end IR-drop validation: a BDSM
// ROM's transient response under a load step must track the full model.
func TestROMTransientMatchesFull(t *testing.T) {
	sys := gridSystem(t)
	rom, err := core.Reduce(sys, core.Options{Moments: 6})
	if err != nil {
		t.Fatal(err)
	}
	opts := TransientOptions{
		Method: Trapezoidal,
		Dt:     5e-12,
		T:      3e-9,
		Input:  UniformInput(Pulse{Low: 0, High: 1e-3, Delay: 1e-10, Rise: 1e-10, Width: 1e-9, Fall: 1e-10, Period: 1}),
	}
	full, err := SimulateSparse(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	red, err := SimulateBlockDiag(rom, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.T) != len(red.T) {
		t.Fatal("step counts differ")
	}
	// Compare at the max |y| scale.
	scale := 0.0
	for k := range full.Y {
		for _, v := range full.Y[k] {
			if a := math.Abs(v); a > scale {
				scale = a
			}
		}
	}
	maxErr := 0.0
	for k := range full.Y {
		for j := range full.Y[k] {
			if e := math.Abs(full.Y[k][j] - red.Y[k][j]); e > maxErr {
				maxErr = e
			}
		}
	}
	if maxErr > 0.01*scale {
		t.Fatalf("ROM transient error %.3e exceeds 1%% of signal scale %.3e", maxErr, scale)
	}
}

func TestDenseVsBlockDiagTransient(t *testing.T) {
	sys := gridSystem(t)
	rom, err := core.Reduce(sys, core.Options{Moments: 4})
	if err != nil {
		t.Fatal(err)
	}
	opts := TransientOptions{
		Dt:    1e-11,
		T:     5e-10,
		Input: UniformInput(Step{Amplitude: 1e-3, Delay: 5e-11}),
	}
	bd, err := SimulateBlockDiag(rom, opts)
	if err != nil {
		t.Fatal(err)
	}
	dn, err := SimulateDense(rom.ToDense(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for k := range bd.Y {
		for j := range bd.Y[k] {
			if math.Abs(bd.Y[k][j]-dn.Y[k][j]) > 1e-12+1e-8*math.Abs(dn.Y[k][j]) {
				t.Fatalf("block vs dense transient differ at step %d", k)
			}
		}
	}
}

func TestTransientOptionValidation(t *testing.T) {
	sys := gridSystem(t)
	if _, err := SimulateSparse(sys, TransientOptions{Dt: 0, T: 1, Input: UniformInput(DC(0))}); err == nil {
		t.Error("zero Dt accepted")
	}
	if _, err := SimulateSparse(sys, TransientOptions{Dt: 1, T: 1}); err == nil {
		t.Error("nil input accepted")
	}
}

func TestACSweepEntryAgainstAnalyticRC(t *testing.T) {
	r, c := 100.0, 1e-9
	cm := sparse.NewCOO[float64](1, 1)
	cm.Add(0, 0, c)
	gm := sparse.NewCOO[float64](1, 1)
	gm.Add(0, 0, -1/r)
	bm := sparse.NewCOO[float64](1, 1)
	bm.Add(0, 0, 1)
	lm := sparse.NewCOO[float64](1, 1)
	lm.Add(0, 0, 1)
	sys, err := lti.NewSparseSystem(cm.ToCSR(), gm.ToCSR(), bm.ToCSR(), lm.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	pts, err := ACSweepEntry(sys, 0, 0, 1e4, 1e10, 31)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		want := complex(r, 0) / (1 + complex(0, pt.Omega*r*c))
		if cmplxAbs(pt.H-want) > 1e-10*cmplxAbs(want) {
			t.Fatalf("AC mismatch at ω=%g", pt.Omega)
		}
	}
	errs, err := RelativeError(pts, pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range errs {
		if e != 0 {
			t.Fatal("self relative error nonzero")
		}
	}
	if _, err := ACSweepEntry(sys, 0, 0, 1e4, 1e3, 10); err == nil {
		t.Error("bad range accepted")
	}
	if _, err := RelativeError(pts, pts[:1]); err == nil {
		t.Error("length mismatch accepted")
	}
}
