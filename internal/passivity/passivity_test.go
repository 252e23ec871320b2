package passivity

import (
	"math/cmplx"
	"testing"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/grid"
	"repro/internal/krylov"
	"repro/internal/lti"
)

// impedanceGrid builds a small power grid whose transfer matrix is the m×m
// port impedance (L selects port nodes, B injects at port nodes) — a passive
// immittance system by construction.
func impedanceGrid(t *testing.T, ports int) *lti.SparseSystem {
	t.Helper()
	cfg := grid.Config{Name: "t", NX: 7, NY: 7, Layers: 2, Ports: ports, Pads: 2,
		SheetR: 0.05, LayerRScale: 2, ViaR: 0.5, ViaPitch: 3, NodeC: 50e-15,
		PadR: 0.1, PadL: 0.5e-9, Variation: 0.2, Seed: 5}
	m, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Flip B so that H(s) is the positive port impedance matrix: the grid
	// generator's loads draw current out of the node (B = -selection), so
	// negate to get the standard +injection convention for immittance tests.
	b := m.B.Clone()
	b.Scale(-1)
	sys, err := lti.NewSparseSystem(m.C, m.G, b, m.L)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestBDSMROMPassivityWorkflow exercises the full Sec. III-D pipeline. The
// paper warns that BDSM ROMs "may be (weakly) non-passive" — unlike PRIMA,
// Lr ≠ Brᵀ across blocks, so congruence passivity does not carry over. The
// workflow must find stable poles and detect at most a weak violation.
func TestBDSMROMPassivityWorkflow(t *testing.T) {
	sys := impedanceGrid(t, 4)
	rom, err := core.Reduce(sys, core.Options{Moments: 4})
	if err != nil {
		t.Fatal(err)
	}
	std, err := ToStandard(rom.ToDense())
	if err != nil {
		t.Fatal(err)
	}
	diag, err := Diagonalize(std)
	if err != nil {
		t.Fatal(err)
	}
	if !diag.Stable() {
		t.Fatal("BDSM impedance ROM has unstable poles")
	}
	opts := CheckOptions{Samples: 120}
	rep, err := Check(rom, diag.Poles, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passive {
		return // non-passivity "seldom occurs" — fine.
	}
	// Any violation must be weak (small relative to the DC impedance level)…
	h0, err := rom.Eval(complex(0, 1e5))
	if err != nil {
		t.Fatal(err)
	}
	if scale := h0.MaxAbs(); -rep.WorstEig > 1e-2*scale {
		t.Fatalf("violation %.3e at ω=%.3e is not weak (scale %.3e)",
			rep.WorstEig, rep.WorstFrequency, scale)
	}
}

// TestPRIMAROMIsProvablyPassive contrasts BDSM: PRIMA's congruence with
// L = Bᵀ yields Lr = Brᵀ, Cr ⪰ 0, Gr + Grᵀ ⪯ 0 — the classical sufficient
// conditions — so the sampled check must pass outright.
func TestPRIMAROMIsProvablyPassive(t *testing.T) {
	sys := impedanceGrid(t, 4)
	rom, err := baselinePRIMA(t, sys, 4)
	if err != nil {
		t.Fatal(err)
	}
	std, err := ToStandard(rom)
	if err != nil {
		t.Fatal(err)
	}
	diag, err := Diagonalize(std)
	if err != nil {
		t.Fatal(err)
	}
	if !diag.Stable() {
		t.Fatal("PRIMA impedance ROM unstable")
	}
	rep, err := Check(rom, diag.Poles, CheckOptions{Samples: 120})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passive {
		t.Fatalf("PRIMA ROM non-passive: worst %.3e at ω=%.3e", rep.WorstEig, rep.WorstFrequency)
	}
}

func TestDiagonalizeReproducesTransfer(t *testing.T) {
	sys := impedanceGrid(t, 3)
	rom, err := core.Reduce(sys, core.Options{Moments: 3})
	if err != nil {
		t.Fatal(err)
	}
	blk := &rom.Blocks[0]
	bm := dense.NewMat[float64](blk.Order(), 1)
	bm.SetCol(0, blk.B)
	d, err := lti.NewDenseSystem(blk.C, blk.G, bm, blk.L)
	if err != nil {
		t.Fatal(err)
	}
	std, err := ToStandard(d)
	if err != nil {
		t.Fatal(err)
	}
	diag, err := Diagonalize(std)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{1e6, 1e9, 1e11} {
		s := complex(0, w)
		h1, err := std.Eval(s)
		if err != nil {
			t.Fatal(err)
		}
		h2 := diag.Eval(s)
		for i := range h1.Data {
			if cmplx.Abs(h1.Data[i]-h2.Data[i]) > 1e-7*(1+cmplx.Abs(h1.Data[i])) {
				t.Fatalf("diagonal realization differs at ω=%g", w)
			}
		}
	}
}

// baselinePRIMA builds a PRIMA ROM via block Arnoldi + congruence.
func baselinePRIMA(t *testing.T, sys *lti.SparseSystem, l int) (*lti.DenseSystem, error) {
	t.Helper()
	op, err := krylov.NewOperator(sys, 1e9, krylov.OperatorOptions{})
	if err != nil {
		return nil, err
	}
	r, err := op.StartBlock()
	if err != nil {
		return nil, err
	}
	basis, err := krylov.BlockArnoldi(op, r, l, nil)
	if err != nil {
		return nil, err
	}
	return krylov.Congruence(sys, basis), nil
}

// negativeResistorSystem is a deliberately non-passive 1-port: a parallel
// RC with negative conductance G = +g (paper convention G stores -G_std, so
// positive means an active element).
func negativeResistorSystem(t *testing.T) *StandardSystem {
	t.Helper()
	// x' = a x + b u with a < 0 (stable) but H(jω) with negative real part:
	// H(s) = c·b/(s - a) + d, choose c·b < 0, d small negative at DC.
	a := dense.NewMat[float64](1, 1)
	a.Set(0, 0, -1)
	b := dense.NewMat[float64](1, 1)
	b.Set(0, 0, 1)
	c := dense.NewMat[float64](1, 1)
	c.Set(0, 0, -2) // residue -2 → Re H(j0) = -2 < 0: non-passive
	return &StandardSystem{A: a, B: b, C: c}
}

func TestCheckDetectsNonPassive(t *testing.T) {
	s := negativeResistorSystem(t)
	poles := []complex128{-1}
	rep, err := Check(s, poles, CheckOptions{WMin: 1e-2, WMax: 1e2, Samples: 60})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passive {
		t.Fatal("non-passive system reported passive")
	}
	if rep.WorstEig >= 0 {
		t.Fatal("worst eigenvalue not negative")
	}
}

func TestToStandardRejectsSingularC(t *testing.T) {
	d, err := lti.NewDenseSystem(dense.NewMat[float64](2, 2), dense.Eye[float64](2),
		dense.NewMat[float64](2, 1), dense.NewMat[float64](1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ToStandard(d); err == nil {
		t.Fatal("singular C accepted")
	}
}
