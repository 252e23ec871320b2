package krylov

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/lti"
	"repro/internal/sparse"
)

// rcSystem builds an RC-only grid whose pencil is SPD.
func rcSystem(t *testing.T) *lti.SparseSystem {
	t.Helper()
	cfg := grid.Config{Name: "rc", NX: 9, NY: 8, Layers: 2, Ports: 5, Pads: 2,
		SheetR: 0.05, LayerRScale: 2, ViaR: 0.5, ViaPitch: 3, NodeC: 50e-15,
		PadR: 0.1, PadL: 0.5e-9, Variation: 0.2, Seed: 3, RCOnly: true}
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

// luOperator is the operator on the sparse LU factor of the pencil at s0:
// the reference the direct backend's symmetric factor is held to.
func luOperator(t *testing.T, sys *lti.SparseSystem, s0 float64) *Operator {
	t.Helper()
	lu, err := sparse.FactorLU(sys.C.Add(s0, sys.G, -1).ToCSC(), sparse.LUOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return newDirectOperator(sys, s0, lu)
}

// TestCholeskyBackendMatchesLUOnRCGrid: the direct backend factors the SPD
// pencil of an RC grid with Cholesky, with less than LU's fill, and solves
// as LU does.
func TestCholeskyBackendMatchesLUOnRCGrid(t *testing.T) {
	sys := rcSystem(t)
	n, _, _ := sys.Dims()
	lu := luOperator(t, sys, 1e9)
	ch, err := NewOperator(sys, 1e9, OperatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ch.FactorNNZ >= lu.FactorNNZ {
		t.Errorf("Cholesky fill %d not below LU fill %d", ch.FactorNNZ, lu.FactorNNZ)
	}
	rng := rand.New(rand.NewSource(4))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	if err := lu.SolvePencil(x1, b); err != nil {
		t.Fatal(err)
	}
	if err := ch.SolvePencil(x2, b); err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if math.Abs(x1[i]-x2[i]) > 1e-9*(1+math.Abs(x1[i])) {
			t.Fatalf("backends disagree at %d: %g vs %g", i, x1[i], x2[i])
		}
	}
	// Worker path through Cholesky.
	wk := ch.Worker()
	x3 := make([]float64, n)
	if err := wk.SolvePencil(x3, b); err != nil {
		t.Fatal(err)
	}
	for i := range x2 {
		if x2[i] != x3[i] {
			t.Fatal("worker Cholesky solve differs")
		}
	}
}

// unsignableSystem returns the RC grid with one off-diagonal conductance of
// row 0 scaled by 1.5, as a controlled source would stamp it: the pair
// gᵢⱼ, gⱼᵢ is then neither symmetric nor antisymmetric, so no row signing
// makes the pencil symmetric.
func unsignableSystem(t *testing.T) *lti.SparseSystem {
	t.Helper()
	sys := rcSystem(t)
	g := sys.G.Clone()
	for k := g.RowPtr[0]; k < g.RowPtr[1]; k++ {
		if g.ColIdx[k] != 0 {
			g.Val[k] *= 1.5
			break
		}
	}
	return &lti.SparseSystem{C: sys.C, G: g, B: sys.B, L: sys.L}
}

// TestCholeskyBackendOnRLCGrid: the direct backend factors the RLC pencil
// through its row signing, with less than LU's fill, and solves as LU does.
func TestCholeskyBackendOnRLCGrid(t *testing.T) {
	sys := testSystem(t)
	n, _, _ := sys.Dims()
	lu := luOperator(t, sys, 1e9)
	ch, err := NewOperator(sys, 1e9, OperatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ch.FactorNNZ >= lu.FactorNNZ {
		t.Errorf("symmetric factor fill %d not below LU fill %d", ch.FactorNNZ, lu.FactorNNZ)
	}
	rng := rand.New(rand.NewSource(5))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	if err := lu.SolvePencil(x1, b); err != nil {
		t.Fatal(err)
	}
	if err := ch.SolvePencil(x2, b); err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if math.Abs(x1[i]-x2[i]) > 1e-9*(1+math.Abs(x1[i])) {
			t.Fatalf("backends disagree at %d: %g vs %g", i, x1[i], x2[i])
		}
	}
}

// TestCholeskyBackendRejectsUnsignablePencil: no row signing makes the
// pencil symmetric, so the direct backend factors it with LU and solves as
// the LU operator does.
func TestCholeskyBackendRejectsUnsignablePencil(t *testing.T) {
	sys := unsignableSystem(t)
	n, _, _ := sys.Dims()
	op, err := NewOperator(sys, 1e9, OperatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := op.direct.(*sparse.LU[float64]); !ok {
		t.Fatalf("direct backend picked %T on an unsignable pencil, want *sparse.LU", op.direct)
	}
	b := make([]float64, n)
	b[0] = 1
	x1, x2 := make([]float64, n), make([]float64, n)
	if err := op.SolvePencil(x1, b); err != nil {
		t.Fatal(err)
	}
	if err := luOperator(t, sys, 1e9).SolvePencil(x2, b); err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if math.Abs(x1[i]-x2[i]) > 1e-12*(1+math.Abs(x2[i])) {
			t.Fatalf("row %d: %g vs LU %g", i, x1[i], x2[i])
		}
	}
}

func TestAutoBackendSelection(t *testing.T) {
	for _, c := range []struct {
		name string
		sys  *lti.SparseSystem
		lu   bool
	}{
		{"RC grid", rcSystem(t), false},
		{"RLC grid", testSystem(t), false},
		{"unsignable pencil", unsignableSystem(t), true},
	} {
		op, err := NewOperator(c.sys, 1e9, OperatorOptions{Backend: BackendAuto})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, lu := op.direct.(*sparse.LU[float64]); lu != c.lu {
			t.Errorf("auto picked %T on %s", op.direct, c.name)
		}
	}
}
