package sim

import (
	"math/rand"
	"testing"
)

// TestKernelsMatchReference: the dispatched (possibly vectorized) kernels
// must produce exactly the reference results at every length, including odd
// tails.
func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fill := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	fillComplex := func(n int) []complex128 {
		v := make([]complex128, n)
		for i := range v {
			v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		return v
	}
	for _, n := range []int{0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 64, 100, 256} {
		er, ei := rng.NormFloat64(), rng.NormFloat64()
		f0r, f0i := rng.NormFloat64(), rng.NormFloat64()
		f1r, f1i := rng.NormFloat64(), rng.NormFloat64()
		u0, u1 := fill(n), fill(n)
		zrGot, ziGot := fill(n), fill(n)
		zrWant := append([]float64(nil), zrGot...)
		ziWant := append([]float64(nil), ziGot...)
		stepModes(zrGot, ziGot, u0, u1, er, ei, f0r, f0i, f1r, f1i)
		stepModesRef(zrWant, ziWant, u0, u1, er, ei, f0r, f0i, f1r, f1i)
		for i := range zrWant {
			if zrGot[i] != zrWant[i] || ziGot[i] != ziWant[i] {
				t.Fatalf("stepModes n=%d i=%d: (%v,%v) != (%v,%v)", n, i, zrGot[i], ziGot[i], zrWant[i], ziWant[i])
			}
		}

		// modalAccum with n outputs over a 6-mode block, one mode zero.
		z := fillComplex(6)
		z[2] = 0
		res := fillComplex(6 * n)
		yGot := fill(n)
		yWant := append([]float64(nil), yGot...)
		modalAccum(yGot, z, res)
		modalAccumRef(yWant, z, res)
		for i := range yWant {
			if yGot[i] != yWant[i] {
				t.Fatalf("modalAccum p=%d i=%d: %v != %v", n, i, yGot[i], yWant[i])
			}
		}
	}

	// accumBlock over varied block shapes, including vector tails in ns.
	for _, shape := range []struct{ q, p, ns int }{
		{0, 3, 8}, {1, 1, 1}, {2, 3, 3}, {3, 2, 4}, {4, 5, 5},
		{6, 4, 7}, {6, 4, 8}, {5, 3, 9}, {7, 2, 15}, {6, 12, 17},
		{12, 12, 64}, {3, 7, 100}, {6, 12, 256},
	} {
		q, p, ns := shape.q, shape.p, shape.ns
		zr, zi := fill(q*ns), fill(q*ns)
		res := fillComplex(q * p)
		ybGot := fill(p * ns)
		ybWant := append([]float64(nil), ybGot...)
		accumBlock(ybGot, zr, zi, res, q, p, ns)
		accumBlockRef(ybWant, zr, zi, res, q, p, ns)
		for i := range ybWant {
			if ybGot[i] != ybWant[i] {
				t.Fatalf("accumBlock q=%d p=%d ns=%d i=%d: %v != %v", q, p, ns, i, ybGot[i], ybWant[i])
			}
		}
	}
}
