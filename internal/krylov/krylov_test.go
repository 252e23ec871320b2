package krylov

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dense"
	"repro/internal/grid"
	"repro/internal/lti"
	"repro/internal/sparse"
)

// testSystem builds a small power-grid descriptor system.
func testSystem(t *testing.T) *lti.SparseSystem {
	t.Helper()
	cfg := grid.Config{Name: "t", NX: 8, NY: 7, Layers: 2, Ports: 5, Pads: 2,
		SheetR: 0.05, LayerRScale: 2, ViaR: 0.5, ViaPitch: 3, NodeC: 50e-15,
		PadR: 0.1, PadL: 0.5e-9, Variation: 0.2, Seed: 3}
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

func TestOperatorApplyMatchesDefinition(t *testing.T) {
	sys := testSystem(t)
	n, _, _ := sys.Dims()
	s0 := 1e9
	op, err := NewOperator(sys, s0, OperatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := make([]float64, n)
	if err := op.Apply(got, x); err != nil {
		t.Fatal(err)
	}
	// Verify (s0C - G)·got = C·x.
	pencil := sys.C.Add(s0, sys.G, -1)
	lhs := make([]float64, n)
	pencil.MatVec(lhs, got)
	rhs := make([]float64, n)
	sys.C.MatVec(rhs, x)
	for i := range lhs {
		if math.Abs(lhs[i]-rhs[i]) > 1e-8*(1+math.Abs(rhs[i])) {
			t.Fatalf("operator defect at %d: %g vs %g", i, lhs[i], rhs[i])
		}
	}
	if op.Solves() != 1 {
		t.Errorf("Solves = %d, want 1", op.Solves())
	}
	// Worker views must produce identical results.
	wk := op.Worker()
	got2 := make([]float64, n)
	if err := wk.Apply(got2, x); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != got2[i] {
			t.Fatal("worker Apply differs from operator Apply")
		}
	}
	if op.Solves() != 2 {
		t.Errorf("worker solve not merged into parent count")
	}
	if op.FactorNNZ == 0 {
		t.Error("FactorNNZ not recorded for the direct backend")
	}
}

func TestOperatorBackendsAgree(t *testing.T) {
	sys := testSystem(t)
	n, _, _ := sys.Dims()
	s0 := 1e9
	lu := luOperator(t, sys, s0)
	it, err := NewOperator(sys, s0, OperatorOptions{Backend: BackendIterative,
		Iter: sparse.IterOptions{Tol: 1e-13, MaxIter: 20 * n}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	if err := lu.SolvePencil(x1, b); err != nil {
		t.Fatal(err)
	}
	if err := it.SolvePencil(x2, b); err != nil {
		t.Fatal(err)
	}
	num := 0.0
	den := 0.0
	for i := range x1 {
		num += (x1[i] - x2[i]) * (x1[i] - x2[i])
		den += x1[i] * x1[i]
	}
	if math.Sqrt(num/den) > 1e-6 {
		t.Fatalf("backends disagree: rel err %.3e", math.Sqrt(num/den))
	}
}

func TestBlockArnoldiSpansMoments(t *testing.T) {
	// The Krylov basis must (numerically) contain A^k·r0 for k < l: project
	// the true Krylov vectors onto the basis and verify zero residual.
	sys := testSystem(t)
	s0 := 1e9
	op, err := NewOperator(sys, s0, OperatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := op.StartBlock()
	if err != nil {
		t.Fatal(err)
	}
	l := 4
	basis, err := BlockArnoldi(op, r, l, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, m, _ := sys.Dims()
	if basis.Len() > l*m {
		t.Fatalf("basis too large: %d > %d", basis.Len(), l*m)
	}
	// Walk true Krylov vectors.
	vecs := make([][]float64, m)
	for j := range vecs {
		vecs[j] = append([]float64(nil), r[j]...)
	}
	for k := 0; k < l; k++ {
		for j := range vecs {
			v := append([]float64(nil), vecs[j]...)
			norm := sparse.Nrm2(v)
			if norm == 0 {
				continue
			}
			// Subtract projection onto basis.
			for c := 0; c < basis.Len(); c++ {
				q := basis.Col(c)
				h := sparse.Dot(q, v)
				sparse.Axpy(v, -h, q)
			}
			if res := sparse.Nrm2(v) / norm; res > 1e-6 {
				t.Fatalf("A^%d r_%d not in span: residual %.3e", k, j, res)
			}
		}
		if k == l-1 {
			break
		}
		for j := range vecs {
			if err := op.Apply(vecs[j], vecs[j]); err != nil {
				t.Fatal(err)
			}
		}
	}
	_ = n
}

func TestBlockArnoldiDeflatesDuplicateColumns(t *testing.T) {
	sys := testSystem(t)
	op, err := NewOperator(sys, 1e9, OperatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := op.StartBlock()
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate the first column: it must deflate everywhere.
	dup := append(r, append([]float64(nil), r[0]...))
	var stats dense.OrthoStats
	basis, err := BlockArnoldi(op, dup, 2, &stats)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := BlockArnoldi(op, r, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if basis.Len() != ref.Len() {
		t.Fatalf("duplicate column changed basis size: %d vs %d", basis.Len(), ref.Len())
	}
	if stats.Deflated == 0 {
		t.Error("deflation not counted")
	}
}

func TestBlockArnoldiEmptyInput(t *testing.T) {
	sys := testSystem(t)
	op, err := NewOperator(sys, 1e9, OperatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n, _, _ := sys.Dims()
	zero := [][]float64{make([]float64, n)}
	if _, err := BlockArnoldi(op, zero, 3, nil); err != ErrEmptyBasis {
		t.Fatalf("err = %v, want ErrEmptyBasis", err)
	}
	if _, err := BlockArnoldi(op, zero, 0, nil); err == nil {
		t.Fatal("l = 0 accepted")
	}
}

func TestCongruencePreservesSymmetryAndMoments(t *testing.T) {
	sys := testSystem(t)
	s0 := 1e9
	op, err := NewOperator(sys, s0, OperatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := op.StartBlock()
	if err != nil {
		t.Fatal(err)
	}
	l := 3
	basis, err := BlockArnoldi(op, r, l, nil)
	if err != nil {
		t.Fatal(err)
	}
	rom := Congruence(sys, basis)
	q, m, p := rom.Dims()
	_, ms, ps := sys.Dims()
	if m != ms || p != ps || q != basis.Len() {
		t.Fatalf("ROM dims %d/%d/%d", q, m, p)
	}
	// Congruence preserves symmetry of C (diagonal) up to roundoff.
	for i := 0; i < q; i++ {
		for j := 0; j < i; j++ {
			if math.Abs(rom.C.At(i, j)-rom.C.At(j, i)) > 1e-12*(1+math.Abs(rom.C.At(i, j))) {
				t.Fatalf("Cr asymmetric at (%d,%d)", i, j)
			}
		}
	}
	// Moment matching: first l moments of ROM equal the originals — the
	// defining property of PRIMA (eq. 5).
	mo, err := sys.Moments(s0, l)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := rom.Moments(s0, l)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < l; k++ {
		scale := mo[k].MaxAbs()
		diff := mo[k].Sub(mr[k]).MaxAbs()
		if diff > 1e-7*scale {
			t.Fatalf("moment %d mismatch: rel err %.3e", k, diff/scale)
		}
	}
}

func TestCongruenceBlockMatchesFullCongruenceOnSingleInput(t *testing.T) {
	sys := testSystem(t)
	op, err := NewOperator(sys, 1e9, OperatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r0, err := op.StartColumn(0)
	if err != nil {
		t.Fatal(err)
	}
	basis, err := BlockArnoldi(op, [][]float64{r0}, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	blk := CongruenceBlock(sys, basis, 0)
	full := Congruence(sys, basis)
	l := basis.Len()
	for i := 0; i < l; i++ {
		for j := 0; j < l; j++ {
			if math.Abs(blk.C.At(i, j)-full.C.At(i, j)) > 1e-13 {
				t.Fatal("block C mismatch")
			}
			if math.Abs(blk.G.At(i, j)-full.G.At(i, j)) > 1e-13 {
				t.Fatal("block G mismatch")
			}
		}
		if math.Abs(blk.B[i]-full.B.At(i, 0)) > 1e-13 {
			t.Fatal("block B mismatch")
		}
	}
}
