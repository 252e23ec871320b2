package param

import (
	"errors"
	"math/cmplx"
	"testing"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/grid"
	"repro/internal/lti"
	"repro/internal/sim"
)

// buildModal reduces one benchmark instance and diagonalizes it.
func buildModal(t *testing.T, name string, scale float64, rcOnly bool) *lti.ModalSystem {
	t.Helper()
	cfg, err := grid.Benchmark(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RCOnly = rcOnly
	gm, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := lti.NewSparseSystem(gm.C, gm.G, gm.B, gm.L)
	if err != nil {
		t.Fatal(err)
	}
	rom, err := core.Reduce(sys, core.Options{Moments: grid.MatchedMoments(name)})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := rom.Modalize()
	if err != nil {
		t.Fatal(err)
	}
	if m, f := ms.ModalCount(); f != 0 {
		t.Fatalf("%s@%g rc=%v: %d of %d blocks not modal", name, scale, rcOnly, f, m+f)
	}
	return ms
}

// maxRelErr wraps MaxRelTransferErr for tests.
func maxRelErr(t *testing.T, a, b *lti.ModalSystem, omegas []float64) float64 {
	t.Helper()
	e, err := MaxRelTransferErr(a, b, omegas)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// Interpolating between two anchors inside one grid-size plateau must land
// within a tight budget of the direct reduction at the held-out scale —
// the continuous electrical scaling is the only thing varying there. Both
// the RLC (complex pole pairs) and RC (real poles) families are exercised.
func TestInterpolateMatchesDirectReductionWithinPlateau(t *testing.T) {
	// ckt1: NX plateau [18/77, 19/77) ≈ [0.2338, 0.2468), ports plateau
	// [12/51, 13/51) ≈ [0.2353, 0.2549); the intersection holds all three
	// scales, so only SheetR/NodeC vary.
	const s0, target, s1 = 0.236, 0.241, 0.246
	omegas, err := sim.LogGrid(1e5, 1e15, 25)
	if err != nil {
		t.Fatal(err)
	}
	for _, rcOnly := range []bool{false, true} {
		a := Anchor{Scale: s0, Modal: buildModal(t, "ckt1", s0, rcOnly)}
		b := Anchor{Scale: s1, Modal: buildModal(t, "ckt1", s1, rcOnly)}
		direct := buildModal(t, "ckt1", target, rcOnly)

		ms, rep, err := Interpolate(a, b, target)
		if err != nil {
			t.Fatalf("rc=%v: %v", rcOnly, err)
		}
		if rep.MatchedPoles == 0 || rep.MaxPoleShift <= 0 {
			t.Fatalf("rc=%v: degenerate report %+v", rcOnly, rep)
		}
		if e := maxRelErr(t, ms, direct, omegas); e > 0.02 {
			t.Errorf("rc=%v: interpolant vs direct reduction: rel err %g > 0.02", rcOnly, e)
		}
	}
}

// At an anchor scale the interpolant must reproduce the anchor itself.
func TestInterpolateExactAtAnchors(t *testing.T) {
	const s0, s1 = 0.236, 0.246
	a := Anchor{Scale: s0, Modal: buildModal(t, "ckt1", s0, true)}
	b := Anchor{Scale: s1, Modal: buildModal(t, "ckt1", s1, true)}
	omegas, _ := sim.LogGrid(1e5, 1e15, 13)
	for _, tc := range []struct {
		scale float64
		ref   *lti.ModalSystem
	}{{s0, a.Modal}, {s1, b.Modal}} {
		ms, _, err := Interpolate(a, b, tc.scale)
		if err != nil {
			t.Fatal(err)
		}
		if e := maxRelErr(t, ms, tc.ref, omegas); e > 1e-6 {
			t.Errorf("scale %g: endpoint error %g", tc.scale, e)
		}
	}
}

// The realized state-space face must agree with the modal face — the
// property that lets the factored path and transient integrators serve the
// interpolant unchanged.
func TestRealizationAgreesWithModalForm(t *testing.T) {
	const s0, s1 = 0.236, 0.246
	a := Anchor{Scale: s0, Modal: buildModal(t, "ckt1", s0, false)}
	b := Anchor{Scale: s1, Modal: buildModal(t, "ckt1", s1, false)}
	ms, _, err := Interpolate(a, b, 0.24)
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Validate(); err != nil {
		t.Fatal(err)
	}
	if mc, fb := ms.ModalCount(); fb != 0 || mc != len(ms.Blocks) {
		t.Fatalf("interpolant not fully modal: %d/%d", mc, mc+fb)
	}
	for _, w := range []float64{1e6, 1e9, 1e12, 1e14} {
		s := complex(0, w)
		hm, err := ms.Eval(s)
		if err != nil {
			t.Fatal(err)
		}
		hb, err := ms.BD.Eval(s)
		if err != nil {
			t.Fatal(err)
		}
		for i := range hm.Data {
			if d := cmplx.Abs(hm.Data[i] - hb.Data[i]); d > 1e-8*(1+cmplx.Abs(hb.Data[i])) {
				t.Fatalf("ω=%g entry %d: modal %v vs realized %v", w, i, hm.Data[i], hb.Data[i])
			}
		}
	}
}

// synthModal builds a hand-written fully-modal single-input system.
func synthModal(poles []complex128, res [][]complex128, d []complex128) *lti.ModalSystem {
	p := len(res[0])
	r := dense.NewMat[complex128](len(poles), p)
	for i := range poles {
		copy(r.Row(i), res[i])
	}
	blocks := []lti.ModalBlock{{Input: 0, Modal: true, Poles: poles, R: r, D: d}}
	ms, err := Realize(blocks, 1, p)
	if err != nil {
		panic(err)
	}
	return ms
}

func TestInterpolateIncompatibleAnchors(t *testing.T) {
	a := Anchor{Scale: 0.2, Modal: synthModal(
		[]complex128{-1e9}, [][]complex128{{1}}, nil)}
	cases := []struct {
		name string
		b    Anchor
	}{
		{"pole count", Anchor{Scale: 0.3, Modal: synthModal(
			[]complex128{-1e9, -2e9}, [][]complex128{{1}, {1}}, nil)}},
		{"direct term", Anchor{Scale: 0.3, Modal: synthModal(
			[]complex128{-1e9}, [][]complex128{{1}}, []complex128{2})}},
	}
	for _, tc := range cases {
		if _, _, err := Interpolate(a, tc.b, 0.25); !errors.Is(err, ErrIncompatible) {
			t.Errorf("%s: got %v, want ErrIncompatible", tc.name, err)
		}
	}
	// Extrapolation and degenerate anchor spacing are incompatible too.
	b := Anchor{Scale: 0.3, Modal: synthModal([]complex128{-2e9}, [][]complex128{{1}}, nil)}
	if _, _, err := Interpolate(a, b, 0.4); !errors.Is(err, ErrIncompatible) {
		t.Errorf("extrapolation: got %v", err)
	}
	if _, _, err := Interpolate(a, Anchor{Scale: 0.2, Modal: a.Modal}, 0.2); !errors.Is(err, ErrIncompatible) {
		t.Errorf("equal anchors: got %v", err)
	}
}

func TestInterpolateAmbiguousPoleMatch(t *testing.T) {
	// The pole moved 9× its magnitude between anchors: no trustworthy linear
	// path exists and the guard must refuse.
	a := Anchor{Scale: 0.2, Modal: synthModal([]complex128{-1e9}, [][]complex128{{1}}, nil)}
	b := Anchor{Scale: 0.3, Modal: synthModal([]complex128{-1e10}, [][]complex128{{1}}, nil)}
	if _, _, err := Interpolate(a, b, 0.25); !errors.Is(err, ErrAmbiguous) {
		t.Fatalf("got %v, want ErrAmbiguous", err)
	}
	// A wider guard admits the same pair.
	if _, _, err := matchPoles(a.Modal.Blocks[0].Poles, b.Modal.Blocks[0].Poles, 20); err != nil {
		t.Fatalf("wide guard: %v", err)
	}
}

func TestMatchPolesPairsNearest(t *testing.T) {
	a := []complex128{-1e9 + 5e9i, -1e9 - 5e9i, -3e12}
	b := []complex128{-3.3e12, -1.1e9 - 5.2e9i, -1.1e9 + 5.2e9i}
	match, worst, err := matchPoles(a, b, DefaultMaxPoleShift)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 1, 0}
	for i, m := range match {
		if m != want[i] {
			t.Fatalf("match = %v, want %v", match, want)
		}
	}
	if worst <= 0 || worst > DefaultMaxPoleShift {
		t.Fatalf("worst shift %g out of range", worst)
	}
}

// Conjugate pairs must interpolate to conjugate pairs and realize into real
// 2×2 rotation blocks with the exact transfer function.
func TestRealizeConjugatePairWithDirectTerm(t *testing.T) {
	poles := []complex128{-2e8 + 7e9i, -2e8 - 7e9i, -4e12}
	res := [][]complex128{{0.5 + 0.25i, -1i}, {0.5 - 0.25i, 1i}, {3, 2}}
	d := []complex128{0.125, -0.25}
	ms := synthModal(poles, res, d)
	if n, m, p := ms.Dims(); n != 4 || m != 1 || p != 2 {
		t.Fatalf("dims = %d,%d,%d (want 4,1,2: pair + real + algebraic)", n, m, p)
	}
	for _, w := range []float64{1e7, 7e9, 1e13} {
		s := complex(0, w)
		var want [2]complex128
		for i, lam := range poles {
			c := 1 / (s - lam)
			for rr := 0; rr < 2; rr++ {
				want[rr] += c * res[i][rr]
			}
		}
		want[0] += d[0]
		want[1] += d[1]
		got, err := ms.BD.Eval(s)
		if err != nil {
			t.Fatal(err)
		}
		for rr := 0; rr < 2; rr++ {
			if diff := cmplx.Abs(got.At(rr, 0) - want[rr]); diff > 1e-10*(1+cmplx.Abs(want[rr])) {
				t.Fatalf("ω=%g row %d: got %v want %v", w, rr, got.At(rr, 0), want[rr])
			}
		}
	}
}

func TestRealizeRejectsUnpairedComplexPole(t *testing.T) {
	r := dense.NewMat[complex128](1, 1)
	r.Set(0, 0, 1)
	blocks := []lti.ModalBlock{{Input: 0, Modal: true, Poles: []complex128{-1e9 + 4e9i}, R: r}}
	if _, err := Realize(blocks, 1, 1); err == nil {
		t.Fatal("unpaired complex pole must not realize")
	}
}
