//go:build amd64 && !purego

package sim

import (
	"math"
	"math/rand"
	"testing"
)

// modalAccumAVX2 is called directly below, not through its dispatch, so a
// build-tag or dispatch slip cannot turn the test into the reference
// compared with itself.
//
// The test runs under two salts. Under defaultNaN every NaN in the inputs is
// x86's default NaN, the one Inf−Inf and 0·Inf produce, so every NaN of the
// computation has one bit pattern and the results must equal the
// reference's under math.Float64bits, sign of zero included. Under mixedNaNs
// the inputs carry NaNs of several bit patterns; when two meet, x86
// propagates the first operand's, and which operand is first in the Go
// reference is the register allocator's choice, so there NaN only has to
// match NaN.

type kernelSalt struct {
	name     string
	specials []float64
	strict   bool // compare NaNs by bits too
}

var kernelFiniteSpecials = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.225073858507201e-308, -1e-310,
	math.Inf(1), math.Inf(-1), 1e300, -1e-300,
}

var kernelSalts = []kernelSalt{
	{"defaultNaN", append([]float64{math.Float64frombits(0xfff8000000000000)}, kernelFiniteSpecials...), true},
	{"mixedNaNs", append([]float64{math.NaN(), math.Float64frombits(0xfff8000000000000),
		math.Float64frombits(0x7ff0000000000123)}, kernelFiniteSpecials...), false},
}

// draw returns a random normal of random magnitude, or one time in four a
// special value: signed zeros, the smallest and largest subnormals,
// infinities, huge and tiny normals, and NaN.
func (s kernelSalt) draw(rng *rand.Rand) float64 {
	if rng.Intn(4) == 0 {
		return s.specials[rng.Intn(len(s.specials))]
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
}

// coords returns q modal coordinates: about one in four is ±0±0i (skipped
// by the kernels), one in four has exactly one zero part (not skipped), the
// rest are drawn part by part.
func (s kernelSalt) coords(rng *rand.Rand, q int) []complex128 {
	z := make([]complex128, q)
	signedZero := func() float64 {
		if rng.Intn(2) == 0 {
			return math.Copysign(0, -1)
		}
		return 0
	}
	for k := range z {
		switch rng.Intn(4) {
		case 0:
			z[k] = complex(signedZero(), signedZero())
		case 1:
			if rng.Intn(2) == 0 {
				z[k] = complex(signedZero(), s.draw(rng))
			} else {
				z[k] = complex(s.draw(rng), signedZero())
			}
		default:
			z[k] = complex(s.draw(rng), s.draw(rng))
		}
	}
	return z
}

func (s kernelSalt) same(a, b float64) bool {
	if math.Float64bits(a) == math.Float64bits(b) {
		return true
	}
	return !s.strict && math.IsNaN(a) && math.IsNaN(b)
}

// TestModalAccumAVX2MatchesRef: the single-session output kernel equals the
// Go loop under math.Float64bits across output-chunk tails, block sizes and
// salted inputs, skipping exactly the modes the Go loop skips.
func TestModalAccumAVX2MatchesRef(t *testing.T) {
	if !useAVX2 {
		t.Skip("CPU or OS lacks AVX2")
	}
	rng := rand.New(rand.NewSource(20))
	for _, salt := range kernelSalts {
		for _, p := range []int{1, 2, 3, 4, 5, 15, 16, 17, 20, 51, 54} {
			for _, q := range []int{0, 1, 2, 6, 13} {
				for rep := 0; rep < 4; rep++ {
					z := salt.coords(rng, q)
					r := make([]complex128, q*p)
					for i := range r {
						r[i] = complex(salt.draw(rng), salt.draw(rng))
					}
					want := make([]float64, p)
					for i := range want {
						want[i] = salt.draw(rng)
					}
					got := append([]float64(nil), want...)
					modalAccumRef(want, z, r)
					modalAccumAVX2(got, z, r)
					for o := range want {
						if !salt.same(got[o], want[o]) {
							t.Fatalf("%s p=%d q=%d rep=%d y[%d]: %v (%#x) != %v (%#x)", salt.name, p, q, rep, o,
								got[o], math.Float64bits(got[o]), want[o], math.Float64bits(want[o]))
						}
					}
				}
			}
		}
	}
}
