package dense

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
)

// Det returns the determinant from the LU diagonal and the pivot sign: the
// reference for the eigenvalue-product property below.
func (f *LU[T]) Det() T {
	det := sparse.FromFloat[T](f.sign)
	for i := 0; i < f.N(); i++ {
		det *= f.lu.At(i, i)
	}
	return det
}

func TestSVDReconstructionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(10), 1+rng.Intn(10)
		a := randMat(rng, m, n)
		u, s, v := SVD(a)
		// A = U diag(s) Vᵀ
		k := len(s)
		us := NewMat[float64](m, k)
		for j := 0; j < k; j++ {
			for i := 0; i < m; i++ {
				us.Set(i, j, u.At(i, j)*s[j])
			}
		}
		rec := us.Mul(v.T())
		if !matApproxEq(rec, a, 1e-9) {
			return false
		}
		// Singular values descending and nonnegative.
		for i := 1; i < k; i++ {
			if s[i] > s[i-1]+1e-12 || s[i] < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSVDKnownRank1(t *testing.T) {
	// A = [1;2]·[3 4]: single nonzero singular value √5·5 = 5·√5? Compute:
	// ‖[1;2]‖·‖[3 4]‖ = √5·5.
	a := FromRows([][]float64{{3, 4}, {6, 8}})
	_, s, _ := SVD(a)
	want := math.Sqrt(5) * 5
	if math.Abs(s[0]-want) > 1e-10 {
		t.Errorf("σ₁ = %g, want %g", s[0], want)
	}
	if s[1] > 1e-10 {
		t.Errorf("σ₂ = %g, want 0 (rank-1 matrix)", s[1])
	}
}

func TestEigSymKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1, 3.
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	vals, vecs, err := EigSym(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-1) > 1e-12 || math.Abs(vals[1]-3) > 1e-12 {
		t.Fatalf("eigenvalues %v, want [1 3]", vals)
	}
	// Verify A v = λ v.
	for k := 0; k < 2; k++ {
		v := vecs.Col(k)
		av := a.MulVec(v)
		for i := range av {
			if math.Abs(av[i]-vals[k]*v[i]) > 1e-12 {
				t.Fatalf("eigenpair %d violated", k)
			}
		}
	}
}

func TestEigSymRandomProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		a := NewMat[float64](n, n)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		vals, vecs, err := EigSym(a)
		if err != nil {
			return false
		}
		// Residual ‖A V - V Λ‖ and orthogonality of V.
		av := a.Mul(vecs)
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				if math.Abs(av.At(i, j)-vals[j]*vecs.At(i, j)) > 1e-9 {
					return false
				}
			}
		}
		return matApproxEq(vecs.T().Mul(vecs), Eye[float64](n), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestEigGeneralKnownComplexPair(t *testing.T) {
	// Rotation-like matrix [[0,-1],[1,0]] has eigenvalues ±i.
	a := FromRows([][]float64{{0, -1}, {1, 0}})
	vals, _, err := Eig(a)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(vals, func(i, j int) bool { return imag(vals[i]) < imag(vals[j]) })
	if absC(vals[0]-(-1i)) > 1e-10 || absC(vals[1]-1i) > 1e-10 {
		t.Fatalf("eigenvalues %v, want ±i", vals)
	}
}

func TestEigGeneralResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		a := randMat(rng, n, n)
		vals, vecs, err := Eig(a)
		if err != nil {
			return false
		}
		ac := ToComplex(a)
		for k := 0; k < n; k++ {
			v := vecs.Col(k)
			av := ac.MulVec(v)
			for i := range av {
				if cmplx.Abs(av[i]-vals[k]*v[i]) > 1e-7 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestEigenvaluesTraceDeterminantProperty(t *testing.T) {
	// Σλ = tr(A) and Πλ = det(A).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randMat(rng, n, n)
		vals, _, err := Eig(a)
		if err != nil {
			return false
		}
		var sum, prod complex128 = 0, 1
		for _, l := range vals {
			sum += l
			prod *= l
		}
		tr := 0.0
		for i := 0; i < n; i++ {
			tr += a.At(i, i)
		}
		f64, err := FactorLU(a)
		var det float64
		if err != nil {
			det = 0
		} else {
			det = f64.Det()
		}
		scale := 1 + math.Abs(tr)
		return cmplx.Abs(sum-complex(tr, 0)) < 1e-7*scale &&
			cmplx.Abs(prod-complex(det, 0)) < 1e-6*(1+math.Abs(det))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBasisOrthonormalityAndDeflation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 20
	var stats OrthoStats
	b := NewBasis[float64](n, &stats)
	for k := 0; k < 8; k++ {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		if !b.Append(v) {
			t.Fatalf("random vector %d unexpectedly deflated", k)
		}
	}
	// A vector already in the span must deflate.
	inSpan := make([]float64, n)
	for k := 0; k < b.Len(); k++ {
		c := rng.NormFloat64()
		for i, q := range b.Col(k) {
			inSpan[i] += c * q
		}
	}
	if b.Append(inSpan) {
		t.Fatal("dependent vector not deflated")
	}
	if stats.Deflated != 1 {
		t.Errorf("Deflated = %d, want 1", stats.Deflated)
	}
	if stats.DotProducts == 0 {
		t.Error("DotProducts not counted")
	}
	// Orthonormality check.
	m := b.Mat()
	if !matApproxEq(m.T().Mul(m), Eye[float64](b.Len()), 1e-12) {
		t.Fatal("basis not orthonormal")
	}
}

func TestBasisZeroVectorDeflates(t *testing.T) {
	b := NewBasis[float64](5, nil)
	if b.Append(make([]float64, 5)) {
		t.Fatal("zero vector must deflate")
	}
}
