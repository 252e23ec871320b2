package lti

import (
	"bytes"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dense"
	"repro/internal/sparse"
)

// rcSystem builds the scalar RC system: C dx/dt = Gx + Bu with C = c,
// G = -1/r, B = L = 1, so H(s) = 1/(sc + 1/r) = r/(1 + src).
func rcSystem(t *testing.T, r, c float64) *SparseSystem {
	t.Helper()
	cm := sparse.NewCOO[float64](1, 1)
	cm.Add(0, 0, c)
	gm := sparse.NewCOO[float64](1, 1)
	gm.Add(0, 0, -1/r)
	bm := sparse.NewCOO[float64](1, 1)
	bm.Add(0, 0, 1)
	lm := sparse.NewCOO[float64](1, 1)
	lm.Add(0, 0, 1)
	sys, err := NewSparseSystem(cm.ToCSR(), gm.ToCSR(), bm.ToCSR(), lm.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestSparseSystemRCAnalytic(t *testing.T) {
	r, c := 100.0, 1e-9
	sys := rcSystem(t, r, c)
	for _, w := range []float64{1e3, 1e6, 1e7 / 3, 1e9} {
		s := complex(0, w)
		h, err := sys.Eval(s)
		if err != nil {
			t.Fatal(err)
		}
		want := complex(r, 0) / (1 + s*complex(r*c, 0))
		if cmplx.Abs(h.At(0, 0)-want) > 1e-12*cmplx.Abs(want) {
			t.Fatalf("H(j%g) = %v, want %v", w, h.At(0, 0), want)
		}
		got, err := EvalEntry(sys, s, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if cmplx.Abs(got-want) > 1e-12*cmplx.Abs(want) {
			t.Fatalf("EvalEntry = %v, want %v", got, want)
		}
	}
}

func TestSparseSystemRCMoments(t *testing.T) {
	r, c := 50.0, 2e-9
	sys := rcSystem(t, r, c)
	s0 := 1e8
	// Analytic: M_k = c^k / (s0 c + 1/r)^{k+1}.
	moments, err := sys.Moments(s0, 4)
	if err != nil {
		t.Fatal(err)
	}
	den := s0*c + 1/r
	for k, mk := range moments {
		want := math.Pow(c, float64(k)) / math.Pow(den, float64(k+1))
		if got := mk.At(0, 0); math.Abs(got-want) > 1e-12*math.Abs(want) {
			t.Fatalf("M_%d = %g, want %g", k, got, want)
		}
	}
}

// randomStableSparse builds a small random RC-like descriptor system with m
// inputs and p outputs.
func randomStableSparse(rng *rand.Rand, n, m, p int) *SparseSystem {
	cm := sparse.NewCOO[float64](n, n)
	gm := sparse.NewCOO[float64](n, n)
	for i := 0; i < n; i++ {
		cm.Add(i, i, 1e-9*(1+rng.Float64()))
		gm.Add(i, i, -(1 + rng.Float64()))
	}
	// Random resistive coupling keeping -G diagonally dominant.
	for k := 0; k < 2*n; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		g := 0.3 * rng.Float64() / float64(2*n)
		gm.Add(i, j, g)
		gm.Add(j, i, g)
		gm.Add(i, i, -g)
		gm.Add(j, j, -g)
	}
	bm := sparse.NewCOO[float64](n, m)
	for j := 0; j < m; j++ {
		bm.Add(rng.Intn(n), j, 1)
	}
	lm := sparse.NewCOO[float64](p, n)
	for i := 0; i < p; i++ {
		lm.Add(i, rng.Intn(n), 1)
	}
	sys, err := NewSparseSystem(cm.ToCSR(), gm.ToCSR(), bm.ToCSR(), lm.ToCSR())
	if err != nil {
		panic(err)
	}
	return sys
}

func TestEvalColumnMatchesEvalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m, p := 3+rng.Intn(10), 1+rng.Intn(4), 1+rng.Intn(4)
		sys := randomStableSparse(rng, n, m, p)
		s := complex(0, math.Pow(10, 6+3*rng.Float64()))
		h, err := sys.Eval(s)
		if err != nil {
			return false
		}
		for j := 0; j < m; j++ {
			col, err := sys.EvalColumn(s, j)
			if err != nil {
				return false
			}
			for i := 0; i < p; i++ {
				if cmplx.Abs(col[i]-h.At(i, j)) > 1e-10*(1+cmplx.Abs(h.At(i, j))) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestDenseMatchesSparseEval(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sys := randomStableSparse(rng, 8, 3, 2)
	d, err := NewDenseSystem(
		dense.FromRows(sys.C.ToDense()),
		dense.FromRows(sys.G.ToDense()),
		dense.FromRows(sys.B.ToCSR().ToDense()),
		dense.FromRows(sys.L.ToDense()),
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{1e5, 1e8, 1e10} {
		s := complex(0, w)
		hs, err := sys.Eval(s)
		if err != nil {
			t.Fatal(err)
		}
		hd, err := d.Eval(s)
		if err != nil {
			t.Fatal(err)
		}
		for i := range hs.Data {
			if cmplx.Abs(hs.Data[i]-hd.Data[i]) > 1e-9*(1+cmplx.Abs(hs.Data[i])) {
				t.Fatalf("dense/sparse Eval mismatch at ω=%g", w)
			}
		}
	}
	// Moments must agree too.
	ms, err := sys.Moments(1e9, 3)
	if err != nil {
		t.Fatal(err)
	}
	md, err := d.Moments(1e9, 3)
	if err != nil {
		t.Fatal(err)
	}
	for k := range ms {
		for i := range ms[k].Data {
			if math.Abs(ms[k].Data[i]-md[k].Data[i]) > 1e-9*(1+math.Abs(ms[k].Data[i])) {
				t.Fatalf("moment %d mismatch", k)
			}
		}
	}
}

// randomBlockDiag builds a random stable block-diagonal ROM.
func randomBlockDiag(rng *rand.Rand, m, p, l int) *BlockDiagSystem {
	bd := &BlockDiagSystem{M: m, P: p}
	for i := 0; i < m; i++ {
		c := dense.Eye[float64](l)
		g := dense.NewMat[float64](l, l)
		for r := 0; r < l; r++ {
			g.Set(r, r, -(1 + rng.Float64()))
			for cc := 0; cc < l; cc++ {
				if cc != r {
					g.Set(r, cc, 0.1*rng.NormFloat64())
				}
			}
		}
		b := make([]float64, l)
		for r := range b {
			b[r] = rng.NormFloat64()
		}
		lm := dense.NewMat[float64](p, l)
		for r := 0; r < p; r++ {
			for cc := 0; cc < l; cc++ {
				lm.Set(r, cc, rng.NormFloat64())
			}
		}
		bd.Blocks = append(bd.Blocks, Block{C: c, G: g, B: b, L: lm, Input: i})
	}
	return bd
}

func TestBlockDiagEvalMatchesDenseAssembly(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, p, l := 1+rng.Intn(4), 1+rng.Intn(3), 1+rng.Intn(4)
		bd := randomBlockDiag(rng, m, p, l)
		if err := bd.Validate(); err != nil {
			return false
		}
		s := complex(0.3*rng.NormFloat64(), 1+rng.Float64())
		hb, err := bd.Eval(s)
		if err != nil {
			return false
		}
		hd, err := bd.ToDense().Eval(s)
		if err != nil {
			return false
		}
		for i := range hb.Data {
			if cmplx.Abs(hb.Data[i]-hd.Data[i]) > 1e-8*(1+cmplx.Abs(hb.Data[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBlockDiagNNZMatchesAssembly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bd := randomBlockDiag(rng, 5, 3, 4)
	c1, g1, b1, l1 := bd.NNZ()
	c2, g2, b2, l2 := bd.ToDense().NNZ()
	if c1 != c2 || g1 != g2 || b1 != b2 || l1 != l2 {
		t.Fatalf("NNZ mismatch: block (%d,%d,%d,%d) vs dense (%d,%d,%d,%d)",
			c1, g1, b1, l1, c2, g2, b2, l2)
	}
	// Structure claim of the paper: m·l² nonzeros in Gr for the block form.
	if g1 > 5*4*4 {
		t.Errorf("Gr nnz %d exceeds m·l² = %d", g1, 5*4*4)
	}
}

func TestBlockDiagApplyInputOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	bd := randomBlockDiag(rng, 3, 2, 2)
	d := bd.ToDense()
	q, m, _ := bd.Dims()
	u := make([]float64, m)
	for i := range u {
		u[i] = rng.NormFloat64()
	}
	x := make([]float64, q)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := make([]float64, q)
	want := make([]float64, q)
	bd.ApplyInput(got, u)
	d.ApplyInput(want, u)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("ApplyInput mismatch at %d", i)
		}
	}
	gy := bd.ApplyOutput(x)
	wy := d.ApplyOutput(x)
	for i := range gy {
		if math.Abs(gy[i]-wy[i]) > 1e-12 {
			t.Fatalf("ApplyOutput mismatch at %d", i)
		}
	}
}

func TestBlockDiagGobRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	bd := randomBlockDiag(rng, 4, 2, 3)
	var buf bytes.Buffer
	if err := SaveBlockDiag(&buf, bd); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBlockDiag(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s := complex(0, 2.0)
	h1, err := bd.Eval(s)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := got.Eval(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range h1.Data {
		if h1.Data[i] != h2.Data[i] {
			t.Fatal("round-trip changed transfer function")
		}
	}
}

// TestDCGainMatchesAnalytic: the DC gain H(0) of a scalar RC is r, for the
// sparse system and for a one-block ROM of it.
func TestDCGainMatchesAnalytic(t *testing.T) {
	r, c := 75.0, 1e-9
	sys := rcSystem(t, r, c)
	h, err := sys.Eval(0)
	if err != nil {
		t.Fatal(err)
	}
	if g := h.At(0, 0); math.Abs(real(g)-r) > 1e-9*r || imag(g) != 0 {
		t.Fatalf("DC gain %v, want %g", g, r)
	}
	bd := &BlockDiagSystem{M: 1, P: 1}
	cm := dense.NewMat[float64](1, 1)
	cm.Set(0, 0, c)
	gm := dense.NewMat[float64](1, 1)
	gm.Set(0, 0, -1/r)
	lm := dense.NewMat[float64](1, 1)
	lm.Set(0, 0, 1)
	bd.Blocks = append(bd.Blocks, Block{C: cm, G: gm, B: []float64{1}, L: lm, Input: 0})
	hr, err := bd.Eval(0)
	if err != nil {
		t.Fatal(err)
	}
	if g := hr.At(0, 0); math.Abs(real(g)-r) > 1e-9*r || imag(g) != 0 {
		t.Fatalf("ROM DC gain %v, want %g", g, r)
	}
}

func TestEvalEntryRangeCheck(t *testing.T) {
	sys := rcSystem(t, 1, 1)
	if _, err := EvalEntry(sys, 1i, 1, 0); err == nil {
		t.Error("out-of-range entry accepted")
	}
}

// TestBlockDiagEvalColumnMatchesEvalExactly: a column evaluation, which
// factors only the blocks its input drives, equals the same column of the
// full-matrix evaluation bit for bit, and rejects columns out of range.
func TestBlockDiagEvalColumnMatchesEvalExactly(t *testing.T) {
	bd := randomBlockDiag(rand.New(rand.NewSource(7)), 4, 3, 5)
	s := complex(0, 1e3)
	h, err := bd.Eval(s)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < bd.M; j++ {
		got, err := bd.EvalColumn(s, j)
		if err != nil {
			t.Fatal(err)
		}
		for r := range got {
			if got[r] != h.At(r, j) {
				t.Fatalf("column %d row %d: EvalColumn %v, Eval %v", j, r, got[r], h.At(r, j))
			}
		}
	}
	for _, j := range []int{-1, bd.M} {
		if _, err := bd.EvalColumn(s, j); err == nil {
			t.Fatalf("EvalColumn accepted column %d of %d", j, bd.M)
		}
	}
}

// TestBlockDiagSingularPencilFails: a block whose pencil is singular at s
// (here C = G = 0) fails both evaluations instead of returning a value.
func TestBlockDiagSingularPencilFails(t *testing.T) {
	bd := &BlockDiagSystem{M: 1, P: 1, Blocks: []Block{{
		C: dense.NewMat[float64](1, 1),
		G: dense.NewMat[float64](1, 1),
		B: []float64{1},
		L: dense.NewMat[float64](1, 1),
	}}}
	if _, err := bd.Eval(complex(0, 1e9)); err == nil {
		t.Fatal("Eval accepted a singular pencil")
	}
	if _, err := bd.EvalColumn(complex(0, 1e9), 0); err == nil {
		t.Fatal("EvalColumn accepted a singular pencil")
	}
}
