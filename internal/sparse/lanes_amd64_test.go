//go:build amd64 && !purego

package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The AVX2 kernels are called directly below, not through their dispatch,
// so a build-tag or dispatch slip cannot turn these tests into the
// reference compared with itself.
//
// Each test runs under two salts. Under defaultNaN every NaN in the inputs
// is x86's default NaN, the one Inf−Inf and 0·Inf produce, so every NaN of
// the computation has one bit pattern and the results must equal the
// reference's under math.Float64bits, sign of zero included. Under
// mixedNaNs the inputs carry NaNs of several bit patterns; when two meet,
// x86 propagates the first operand's, and which operand is first in the Go
// reference is the register allocator's choice (it differs between lanes of
// one loop), so there NaN only has to match NaN.

func requireAVX2(t *testing.T) {
	t.Helper()
	if !useAVX2 {
		t.Skip("CPU or OS lacks AVX2")
	}
}

// salt is one set of special values the random inputs are salted with.
type salt struct {
	name     string
	specials []float64
	strict   bool // compare NaNs by bits too
}

var finiteSpecials = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.225073858507201e-308, -1e-310,
	math.Inf(1), math.Inf(-1), 1e300, -1e-300,
}

var salts = []salt{
	{"defaultNaN", append([]float64{math.Float64frombits(0xfff8000000000000)}, finiteSpecials...), true},
	{"mixedNaNs", append([]float64{math.NaN(), math.Float64frombits(0xfff8000000000000),
		math.Float64frombits(0x7ff0000000000123)}, finiteSpecials...), false},
}

// draw returns a random normal of random magnitude, or one time in four a
// special value: signed zeros, the smallest and largest subnormals,
// infinities, huge and tiny normals, and NaN.
func (s salt) draw(rng *rand.Rand) float64 {
	if rng.Intn(4) == 0 {
		return s.specials[rng.Intn(len(s.specials))]
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
}

// panel returns a panel of n rows drawn by draw in which about one row in
// five is all zero (signs mixed) and one in five has some zero lanes.
func (s salt) panel(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n*PanelWidth)
	for i := range x {
		x[i] = s.draw(rng)
	}
	for i := 0; i < n; i++ {
		row := x[i*PanelWidth : (i+1)*PanelWidth]
		switch rng.Intn(5) {
		case 0:
			for k := range row {
				row[k] = 0
				if rng.Intn(2) == 0 {
					row[k] = math.Copysign(0, -1)
				}
			}
		case 1:
			for k := range row {
				if rng.Intn(2) == 0 {
					row[k] = 0
				}
			}
		}
	}
	return x
}

// check requires got to equal the reference's want entry by entry.
func (s salt) check(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		g, w := math.Float64bits(got[i]), math.Float64bits(want[i])
		if g == w || !s.strict && math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		t.Fatalf("%s (%s): entry %d (row %d lane %d) is %v (%#x), reference %v (%#x)",
			what, s.name, i, i/PanelWidth, i%PanelWidth, got[i], g, want[i], w)
	}
}

var avx2Sizes = []int{0, 1, 2, 7, 64, 333}

func TestLaneDotsAVX2MatchesRef(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 80; trial++ {
		sl := salts[trial%2]
		for _, n := range avx2Sizes {
			q, x := sl.panel(rng, n), sl.panel(rng, n)
			var d0 [PanelWidth]float64
			for k := range d0 {
				d0[k] = sl.draw(rng)
			}
			want := d0
			laneDotsRef(&want, q, x)
			got := d0
			laneDotsAVX2(&got, q, x)
			sl.check(t, "laneDotsAVX2", got[:], want[:])
			// Chained over split ranges, as congruence calls it per row block.
			cut := rng.Intn(n + 1)
			got = d0
			laneDotsAVX2(&got, q[:cut*PanelWidth], x[:cut*PanelWidth])
			laneDotsAVX2(&got, q[cut*PanelWidth:], x[cut*PanelWidth:])
			sl.check(t, "laneDotsAVX2 chained", got[:], want[:])
		}
	}
}

func TestLaneAxpyDotAVX2MatchesRef(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(92))
	for trial := 0; trial < 80; trial++ {
		sl := salts[trial%2]
		for _, n := range avx2Sizes {
			x, p, q := sl.panel(rng, n), sl.panel(rng, n), sl.panel(rng, n)
			if trial%4 >= 2 {
				q = p // q may alias p
			}
			var a [PanelWidth]float64
			for k := range a {
				a[k] = sl.draw(rng)
			}
			xw := append([]float64(nil), x...)
			var dw [PanelWidth]float64
			laneAxpyDotRef(&dw, xw, &a, p, q)
			xg := append([]float64(nil), x...)
			dg := [PanelWidth]float64{1, 2, 3, 4, 5, 6, 7, 8} // overwritten, not continued
			laneAxpyDotAVX2(&dg, xg, &a, p, q)
			sl.check(t, "laneAxpyDotAVX2 x", xg, xw)
			sl.check(t, "laneAxpyDotAVX2 d", dg[:], dw[:])
		}
	}
}

// csr returns a rows×cols CSR matrix with about perRow entries per
// row, salted values, and some rows left empty.
func (s salt) csr(rng *rand.Rand, rows, cols int, perRow float64) *CSR[float64] {
	c := NewCOO[float64](rows, cols)
	if cols > 0 {
		for k := 0; k < int(perRow*float64(rows)); k++ {
			c.Add(rng.Intn(rows), rng.Intn(cols), s.draw(rng))
		}
	}
	return c.ToCSR()
}

func TestMulPanelRowsAVX2MatchesRef(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(93))
	for trial := 0; trial < 40; trial++ {
		sl := salts[trial%2]
		for _, n := range avx2Sizes {
			rows := n + rng.Intn(5)
			a := sl.csr(rng, rows, n, 1+3*rng.Float64())
			x := sl.panel(rng, n)
			lo := rng.Intn(rows + 1)
			hi := lo + rng.Intn(rows-lo+1)
			rp := a.RowPtr[lo : hi+1]
			want := make([]float64, (hi-lo)*PanelWidth)
			mulPanelRowsRef(rp, a.ColIdx, a.Val, want, x)
			got := make([]float64, len(want))
			for i := range got {
				got[i] = math.NaN() // every entry must be written
			}
			mulPanelRowsAVX2(rp, a.ColIdx, a.Val, got, x)
			sl.check(t, "mulPanelRowsAVX2", got, want)
		}
	}
}

// avx2Factors returns Cholesky factors to check the panel passes on: SPD
// (S = I) and signed (S ≠ I) ones, each under the natural and AMD
// orderings.
func avx2Factors(t *testing.T, rng *rand.Rand) (names []string, factors []*Cholesky) {
	t.Helper()
	for _, ord := range []Ordering{OrderNatural, OrderAMD} {
		name := map[Ordering]string{OrderNatural: "natural", OrderAMD: "amd"}[ord]
		spd, err := FactorCholesky(laplacian2D(13, 9, 0.01), LUOptions{Ordering: ord})
		if err != nil {
			t.Fatal(err)
		}
		names, factors = append(names, "spd/"+name), append(factors, spd)
		for _, n := range []int{1, 40, 200} {
			a, s := quasiDefinite(rng, n, true)
			signed, err := factorSigned(a, LUOptions{Ordering: ord})
			if err != nil {
				t.Fatal(err)
			}
			if n > 1 && !hasNegative(s) {
				t.Fatalf("quasiDefinite(%d) drew no inductor rows", n)
			}
			names, factors = append(names, fmt.Sprintf("signed/%s/n=%d", name, n)), append(factors, signed)
		}
	}
	return names, factors
}

func hasNegative(s []float64) bool {
	for _, v := range s {
		if v < 0 {
			return true
		}
	}
	return false
}

func TestCholeskyPanelAVX2MatchesRef(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(94))
	names, factors := avx2Factors(t, rng)
	for f, c := range factors {
		name, l := names[f], c.l
		for trial := 0; trial < 10; trial++ {
			sl := salts[trial%2]
			w := sl.panel(rng, c.n)
			want := append([]float64(nil), w...)
			cholForwardRef(l.ColPtr, l.RowIdx, l.Val, want)
			got := append([]float64(nil), w...)
			cholForwardAVX2(l.ColPtr, l.RowIdx, l.Val, got)
			sl.check(t, name+" cholForwardAVX2", got, want)

			cholBackRef(l.ColPtr, l.RowIdx, l.Val, c.sig, want)
			cholBackAVX2(l.ColPtr, l.RowIdx, l.Val, c.sig, got)
			sl.check(t, name+" cholBackAVX2", got, want)

			// The back pass on its own, from a salted panel.
			want = append(want[:0], w...)
			cholBackRef(l.ColPtr, l.RowIdx, l.Val, c.sig, want)
			got = append(got[:0], w...)
			cholBackAVX2(l.ColPtr, l.RowIdx, l.Val, c.sig, got)
			sl.check(t, name+" cholBackAVX2 alone", got, want)
		}
	}
}
