package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// laneSizes are the panel row counts every lane kernel is checked at: empty,
// one row, a few rows, and the ckt1 Krylov dimension.
var laneSizes = []int{0, 1, 7, 5933}

// Lane roles in the test panels: zeroLane is all zeros, nanLane is a
// retired lane full of NaN that must not reach any other lane.
const (
	zeroLane = 2
	nanLane  = 5
)

// testPanel returns a panel of n rows whose lanes are random normals,
// except zeroLane (zero) and nanLane (NaN).
func testPanel(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n*PanelWidth)
	for i := range x {
		switch i % PanelWidth {
		case zeroLane:
		case nanLane:
			x[i] = math.NaN()
		default:
			x[i] = rng.NormFloat64()
		}
	}
	return x
}

// lane returns a copy of lane k of the panel x.
func lane(x []float64, k int) []float64 {
	v := make([]float64, len(x)/PanelWidth)
	for i := range v {
		v[i] = x[i*PanelWidth+k]
	}
	return v
}

// sameBits reports whether a and b are the same float64, sign of zero
// included. Any two NaNs match: when both operands of an addition are NaN,
// which one x86 propagates depends on the operand order the compiler
// picks, not on the arithmetic.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// checkLane requires lane k of the panel got to be bit-identical to want.
func checkLane(t *testing.T, what string, n, k int, got []float64, want []float64) {
	t.Helper()
	for i, w := range want {
		if g := got[i*PanelWidth+k]; !sameBits(g, w) {
			t.Fatalf("%s n=%d lane %d row %d: %v, single-vector kernel %v", what, n, k, i, g, w)
		}
	}
}

// checkScalar requires d[k] to be bit-identical to want, and NaN only on
// the NaN lane.
func checkScalar(t *testing.T, what string, n, k int, got, want float64) {
	t.Helper()
	if !sameBits(got, want) {
		t.Fatalf("%s n=%d lane %d: %v, single-vector kernel %v", what, n, k, got, want)
	}
	if k != nanLane && math.IsNaN(got) {
		t.Fatalf("%s n=%d lane %d: NaN leaked from lane %d", what, n, k, nanLane)
	}
}

func TestLaneDotsMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range laneSizes {
		q, x := testPanel(rng, n), testPanel(rng, n)
		var d [PanelWidth]float64
		LaneDots(&d, q, x)
		// Continuing the sums over two row ranges equals one pass.
		var e [PanelWidth]float64
		h := n / 2 * PanelWidth
		LaneDots(&e, q[:h], x[:h])
		LaneDots(&e, q[h:], x[h:])
		for k := range d {
			want := Dot(lane(q, k), lane(x, k))
			checkScalar(t, "LaneDots", n, k, d[k], want)
			checkScalar(t, "LaneDots over two ranges", n, k, e[k], want)
		}
	}
}

func TestLaneAxpyDotMatchesAxpyThenDot(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range laneSizes {
		x, p, q := testPanel(rng, n), testPanel(rng, n), testPanel(rng, n)
		var a [PanelWidth]float64
		for k := range a {
			a[k] = rng.NormFloat64()
		}
		a[zeroLane] = 0
		want := make([][]float64, PanelWidth)
		var wantDot [PanelWidth]float64
		for k := range want {
			want[k] = lane(x, k)
			Axpy(want[k], a[k], lane(p, k))
			wantDot[k] = Dot(lane(q, k), want[k])
		}
		var d [PanelWidth]float64
		LaneAxpyDot(&d, x, &a, p, q)
		for k := range want {
			checkLane(t, "LaneAxpyDot update", n, k, x, want[k])
			checkScalar(t, "LaneAxpyDot dot", n, k, d[k], wantDot[k])
		}
	}
}

func TestLaneAxpyNrm2MatchesAxpyThenNrm2(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range laneSizes {
		x, p := testPanel(rng, n), testPanel(rng, n)
		var a [PanelWidth]float64
		for k := range a {
			a[k] = rng.NormFloat64()
		}
		want := make([][]float64, PanelWidth)
		var wantNorm [PanelWidth]float64
		for k := range want {
			want[k] = lane(x, k)
			Axpy(want[k], a[k], lane(p, k))
			wantNorm[k] = Nrm2(want[k])
		}
		var d [PanelWidth]float64
		LaneAxpyNrm2(&d, x, &a, p)
		for k := range want {
			checkLane(t, "LaneAxpyNrm2 update", n, k, x, want[k])
			checkScalar(t, "LaneAxpyNrm2 norm", n, k, d[k], wantNorm[k])
		}
	}
}

func TestLaneNrm2AndScaleMatchSingleVector(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range laneSizes {
		x := testPanel(rng, n)
		var d, s [PanelWidth]float64
		LaneNrm2(&d, x)
		for k := range d {
			checkScalar(t, "LaneNrm2", n, k, d[k], Nrm2(lane(x, k)))
			s[k] = 1 / rng.NormFloat64()
		}
		want := make([][]float64, PanelWidth)
		for k := range want {
			want[k] = lane(x, k)
			ScaleVec(want[k], s[k])
		}
		LaneScale(x, &s)
		for k := range want {
			checkLane(t, "LaneScale", n, k, x, want[k])
		}
	}
}

func TestCSRMulPanelMatchesMatVec(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range laneSizes {
		for _, rows := range []int{n, 3} {
			a := randomCOO(rng, rows, n, 5/float64(max(n, 1))).ToCSR()
			x := testPanel(rng, n)
			dst := make([]float64, rows*PanelWidth)
			a.MulPanel(dst, x)
			want := make([]float64, rows)
			for k := 0; k < PanelWidth; k++ {
				a.MatVec(want, lane(x, k))
				checkLane(t, "MulPanel", n, k, dst, want)
				if k != nanLane {
					for i := range want {
						if math.IsNaN(dst[i*PanelWidth+k]) {
							t.Fatalf("MulPanel n=%d lane %d row %d: NaN leaked", n, k, i)
						}
					}
				}
			}
			// Row blocks of MulPanelRows tile MulPanel.
			lo := rows / 3
			part := make([]float64, (rows-lo)*PanelWidth)
			a.MulPanelRows(part, x, lo, rows)
			for i, v := range part {
				if !sameBits(v, dst[lo*PanelWidth+i]) {
					t.Fatalf("MulPanelRows n=%d entry %d: %v, MulPanel %v", n, i, v, dst[lo*PanelWidth+i])
				}
			}
		}
	}
}

// TestCSRMulPanelComplexMatchesMatVec covers the complex128 instance, which
// the float64 AVX2 dispatch must leave on the Go loop.
func TestCSRMulPanelComplexMatchesMatVec(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const rows, cols = 9, 13
	c := NewCOO[complex128](rows, cols)
	for k := 0; k < 30; k++ {
		c.Add(rng.Intn(rows), rng.Intn(cols), complex(rng.NormFloat64(), rng.NormFloat64()))
	}
	a := c.ToCSR()
	x := make([]complex128, cols*PanelWidth)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	dst := make([]complex128, rows*PanelWidth)
	a.MulPanel(dst, x)
	col, want := make([]complex128, cols), make([]complex128, rows)
	for k := 0; k < PanelWidth; k++ {
		for i := range col {
			col[i] = x[i*PanelWidth+k]
		}
		a.MatVec(want, col)
		for i, w := range want {
			if dst[i*PanelWidth+k] != w {
				t.Fatalf("lane %d row %d: %v, MatVec %v", k, i, dst[i*PanelWidth+k], w)
			}
		}
	}
}

// The lane kernels run once per slot pair, Gram–Schmidt pass or chain
// level in the Krylov phase; they must not allocate.

//pgmor:alloctest LaneDots
//pgmor:alloctest LaneAxpyDot
//pgmor:alloctest LaneAxpyNrm2
//pgmor:alloctest LaneNrm2
//pgmor:alloctest LaneScale
//pgmor:alloctest CSR.MulPanel
//pgmor:alloctest CSR.MulPanelRows
func TestLaneKernelsAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const n = 64
	x, p, q := testPanel(rng, n), testPanel(rng, n), testPanel(rng, n)
	a := laplacian2D(8, 8, 0.01).ToCSR()
	var d, c [PanelWidth]float64
	for name, f := range map[string]func(){
		"LaneDots":         func() { LaneDots(&d, q, x) },
		"LaneAxpyDot":      func() { LaneAxpyDot(&d, x, &c, p, q) },
		"LaneAxpyNrm2":     func() { LaneAxpyNrm2(&d, x, &c, p) },
		"LaneNrm2":         func() { LaneNrm2(&d, x) },
		"LaneScale":        func() { LaneScale(x, &c) },
		"CSR.MulPanel":     func() { a.MulPanel(p, q) },
		"CSR.MulPanelRows": func() { a.MulPanelRows(p[:8*PanelWidth], q, 8, 16) },
	} {
		if allocs := testing.AllocsPerRun(50, f); allocs != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", name, allocs)
		}
	}
}

// specialFloats are the values a hoisted fast path must treat exactly as
// the generic form does.
var specialFloats = []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2e-308, -1e-310,
	math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(), 1, -3.5, 1e300, -1e-300}

// TestVecFastPathsMatchGeneric pins the float64 and complex128 fast paths
// of Nrm2, DotConj and InfNorm to their generic forms, bit for bit, on
// random vectors salted with ±0, subnormals, ±Inf and NaN.
func TestVecFastPathsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	draw := func() float64 {
		if rng.Intn(4) == 0 {
			return specialFloats[rng.Intn(len(specialFloats))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(20)
		x, y := make([]float64, n), make([]float64, n)
		cx, cy := make([]complex128, n), make([]complex128, n)
		for i := 0; i < n; i++ {
			x[i], y[i] = draw(), draw()
			cx[i], cy[i] = complex(draw(), draw()), complex(draw(), draw())
		}
		if g, w := Nrm2(x), nrm2Generic(x); !sameBits(g, w) {
			t.Fatalf("Nrm2(%v) = %v, generic %v", x, g, w)
		}
		if g, w := DotConj(x, y), dotConjGeneric(x, y); !sameBits(g, w) {
			t.Fatalf("DotConj(%v, %v) = %v, generic %v", x, y, g, w)
		}
		if g, w := InfNorm(x), infNormGeneric(x); !sameBits(g, w) {
			t.Fatalf("InfNorm(%v) = %v, generic %v", x, g, w)
		}
		if g, w := Nrm2(cx), nrm2Generic(cx); !sameBits(g, w) {
			t.Fatalf("Nrm2(%v) = %v, generic %v", cx, g, w)
		}
		if g, w := DotConj(cx, cy), dotConjGeneric(cx, cy); !sameBits(real(g), real(w)) || !sameBits(imag(g), imag(w)) {
			t.Fatalf("DotConj(%v, %v) = %v, generic %v", cx, cy, g, w)
		}
		if g, w := InfNorm(cx), infNormGeneric(cx); !sameBits(g, w) {
			t.Fatalf("InfNorm(%v) = %v, generic %v", cx, g, w)
		}
	}
}
