package krylov

import (
	"errors"
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

func TestCholeskyBackendMatchesLUOnRCGrid(t *testing.T) {
	sys := rcSystem(t)
	n, _, _ := sys.Dims()
	lu, err := NewOperator(sys, 1e9, OperatorOptions{Backend: BackendLU})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewOperator(sys, 1e9, OperatorOptions{Backend: BackendCholesky})
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

// TestCholeskyBackendOnRLCGrid: the explicit Cholesky backend factors the
// RLC pencil through its row signing, with less than LU's fill, and solves
// as LU does.
func TestCholeskyBackendOnRLCGrid(t *testing.T) {
	sys := testSystem(t)
	n, _, _ := sys.Dims()
	lu, err := NewOperator(sys, 1e9, OperatorOptions{Backend: BackendLU})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewOperator(sys, 1e9, OperatorOptions{Backend: BackendCholesky})
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

func TestCholeskyBackendRejectsUnsignablePencil(t *testing.T) {
	_, err := NewOperator(unsignableSystem(t), 1e9, OperatorOptions{Backend: BackendCholesky})
	if !errors.Is(err, sparse.ErrNotSPD) {
		t.Fatalf("err = %v, want ErrNotSPD for a pencil no row signing makes symmetric", err)
	}
}

func TestAutoBackendSelection(t *testing.T) {
	for _, c := range []struct {
		name string
		sys  *lti.SparseSystem
		want Backend
	}{
		{"RC grid", rcSystem(t), BackendCholesky},
		{"RLC grid", testSystem(t), BackendCholesky},
		{"unsignable pencil", unsignableSystem(t), BackendLU},
	} {
		op, err := NewOperator(c.sys, 1e9, OperatorOptions{Backend: BackendAuto})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if op.UsedBackend != c.want {
			t.Errorf("auto picked %v on %s, want %v", op.UsedBackend, c.name, c.want)
		}
	}
}

func TestBackendStrings(t *testing.T) {
	cases := map[Backend]string{
		BackendLU: "lu", BackendIterative: "bicgstab",
		BackendCholesky: "cholesky", BackendAuto: "auto", Backend(99): "unknown",
	}
	for b, want := range cases {
		if got := b.String(); got != want {
			t.Errorf("Backend(%d).String() = %q, want %q", b, got, want)
		}
	}
}
