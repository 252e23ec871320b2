package sparse

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestCOOToCSRBasic(t *testing.T) {
	c := NewCOO[float64](3, 4)
	c.Add(0, 1, 2)
	c.Add(2, 3, 5)
	c.Add(0, 1, 3) // duplicate, summed
	c.Add(1, 0, -1)
	c.Add(1, 2, 4)
	a := c.ToCSR()
	if r, cols := a.Dims(); r != 3 || cols != 4 {
		t.Fatalf("dims = %d×%d, want 3×4", r, cols)
	}
	if got := a.At(0, 1); got != 5 {
		t.Errorf("At(0,1) = %v, want 5 (duplicates summed)", got)
	}
	if got := a.At(1, 0); got != -1 {
		t.Errorf("At(1,0) = %v, want -1", got)
	}
	if got := a.At(2, 2); got != 0 {
		t.Errorf("At(2,2) = %v, want 0 (absent entry)", got)
	}
	if a.NNZ() != 4 {
		t.Errorf("NNZ = %d, want 4", a.NNZ())
	}
}

func TestCOODropsCancellingDuplicates(t *testing.T) {
	c := NewCOO[float64](2, 2)
	c.Add(0, 0, 1)
	c.Add(0, 0, -1)
	c.Add(1, 1, 3)
	a := c.ToCSR()
	if a.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1: cancelled duplicate must be dropped", a.NNZ())
	}
	if a.At(1, 1) != 3 {
		t.Errorf("At(1,1) = %v, want 3", a.At(1, 1))
	}
}

func TestCOOOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add out of range did not panic")
		}
	}()
	NewCOO[float64](2, 2).Add(2, 0, 1)
}

// randomCOO builds a random sparse matrix with roughly density*rows*cols
// entries, including deliberate duplicates.
func randomCOO(rng *rand.Rand, rows, cols int, density float64) *COO[float64] {
	c := NewCOO[float64](rows, cols)
	n := int(density * float64(rows*cols))
	for k := 0; k < n; k++ {
		c.Add(rng.Intn(rows), rng.Intn(cols), rng.NormFloat64())
	}
	return c
}

func TestCOORoundTripCSRvsCSCProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(20), 1+rng.Intn(20)
		c := randomCOO(rng, rows, cols, 0.3)
		dr := c.ToCSR().ToDense()
		dc := c.ToCSC().ToCSR().ToDense()
		for i := range dr {
			for j := range dr[i] {
				if math.Abs(dr[i][j]-dc[i][j]) > 1e-14 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCSRTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(15), 1+rng.Intn(15)
		a := randomCOO(rng, rows, cols, 0.4).ToCSR()
		at := a.Transpose()
		d, dt := a.ToDense(), at.ToDense()
		for i := range d {
			for j := range d[i] {
				if d[i][j] != dt[j][i] {
					return false
				}
			}
		}
		// Double transpose is the identity.
		att := at.Transpose().ToDense()
		for i := range d {
			for j := range d[i] {
				if d[i][j] != att[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCSRMatVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		rows, cols := 1+rng.Intn(30), 1+rng.Intn(30)
		a := randomCOO(rng, rows, cols, 0.3).ToCSR()
		d := a.ToDense()
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := make([]float64, rows)
		a.MatVec(got, x)
		for i := 0; i < rows; i++ {
			want := 0.0
			for j := 0; j < cols; j++ {
				want += d[i][j] * x[j]
			}
			if math.Abs(got[i]-want) > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("trial %d: MatVec[%d] = %g, want %g", trial, i, got[i], want)
			}
		}
	}
}

func mustVec(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// TestCSRMatVecTMatchesTranspose: Aᵀ·x through Transpose().MatVec matches
// the dense transpose product.
func TestCSRMatVecTMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		rows, cols := 1+rng.Intn(30), 1+rng.Intn(30)
		a := randomCOO(rng, rows, cols, 0.3).ToCSR()
		d := a.ToDense()
		x := mustVec(rng, rows)
		got := make([]float64, cols)
		a.Transpose().MatVec(got, x)
		for j := range got {
			want := 0.0
			for i := 0; i < rows; i++ {
				want += d[i][j] * x[i]
			}
			if math.Abs(got[j]-want) > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("trial %d: (Aᵀx)[%d] = %g, want %g", trial, j, got[j], want)
			}
		}
	}
}

func TestCSRAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 25; trial++ {
		rows, cols := 1+rng.Intn(20), 1+rng.Intn(20)
		a := randomCOO(rng, rows, cols, 0.3).ToCSR()
		b := randomCOO(rng, rows, cols, 0.3).ToCSR()
		alpha, beta := rng.NormFloat64(), rng.NormFloat64()
		s := a.Add(alpha, b, beta)
		da, db, ds := a.ToDense(), b.ToDense(), s.ToDense()
		for i := range ds {
			for j := range ds[i] {
				want := alpha*da[i][j] + beta*db[i][j]
				if math.Abs(ds[i][j]-want) > 1e-12*(1+math.Abs(want)) {
					t.Fatalf("Add mismatch at (%d,%d): %g want %g", i, j, ds[i][j], want)
				}
			}
		}
	}
}

func TestCSRAddKeepsUnionPattern(t *testing.T) {
	// Exact zeros arising from alpha=0 must be retained so that the pencil
	// (s0·C - G) has a stable symbolic structure across expansion points.
	c := NewCOO[float64](2, 2)
	c.Add(0, 0, 1)
	a := c.ToCSR()
	c2 := NewCOO[float64](2, 2)
	c2.Add(1, 1, 2)
	b := c2.ToCSR()
	s := a.Add(0, b, 1)
	if s.NNZ() != 2 {
		t.Fatalf("union pattern NNZ = %d, want 2", s.NNZ())
	}
}

func TestPermuteSym(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 8
	a := randomCOO(rng, n, n, 0.4).ToCSC()
	p := Perm(rng.Perm(n))
	b := a.PermuteSym(p)
	da, db := a.ToCSR().ToDense(), b.ToCSR().ToDense()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if db[i][j] != da[p[i]][p[j]] {
				t.Fatalf("PermuteSym mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestPermInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		p := Perm(rng.Perm(n))
		if !p.IsValid() {
			return false
		}
		q := p.Inverse()
		for i := range p {
			if q[p[i]] != i || p[q[i]] != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestToComplexPreservesValues(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	a := randomCOO(rng, 6, 6, 0.5).ToCSR()
	z := ToComplex(a)
	da, dz := a.ToDense(), z.ToDense()
	for i := range da {
		for j := range da[i] {
			if complex(da[i][j], 0) != dz[i][j] {
				t.Fatalf("ToComplex mismatch at (%d,%d)", i, j)
			}
		}
	}
}

// compileTwoPass is the two-pass counting-sort compile the one-pass compile
// replaced, kept as its reference: a stable sort by minor index, then a
// stable sort by major index over that sequence, then duplicate summation
// from zero in (major, minor, insertion) order with exact zeros dropped.
func compileTwoPass[T Scalar](a *COO[T], rowMajor bool) (ptr []int, idx []int, val []T) {
	n := len(a.v)
	maj, min := a.ri, a.ci
	majDim, minDim := a.rows, a.cols
	if !rowMajor {
		maj, min = a.ci, a.ri
		majDim, minDim = a.cols, a.rows
	}
	count := make([]int, max(majDim, minDim)+1)
	for _, j := range min {
		count[j+1]++
	}
	for j := 0; j < minDim; j++ {
		count[j+1] += count[j]
	}
	byMinor := make([]int, n)
	for t := 0; t < n; t++ {
		j := min[t]
		byMinor[count[j]] = t
		count[j]++
	}
	clear(count)
	for _, i := range maj {
		count[i+1]++
	}
	for i := 0; i < majDim; i++ {
		count[i+1] += count[i]
	}
	order := make([]int, n)
	for _, t := range byMinor {
		i := maj[t]
		order[count[i]] = t
		count[i]++
	}
	ptr = make([]int, majDim+1)
	idx = make([]int, 0, n)
	val = make([]T, 0, n)
	for k := 0; k < n; {
		t := order[k]
		m, mi := maj[t], min[t]
		var sum T
		for k < n {
			t = order[k]
			if maj[t] != m || min[t] != mi {
				break
			}
			sum += a.v[t]
			k++
		}
		if !IsZero(sum) {
			idx = append(idx, int(mi))
			val = append(val, sum)
			ptr[m+1]++
		}
	}
	for i := 0; i < majDim; i++ {
		ptr[i+1] += ptr[i]
	}
	return ptr, idx, val
}

// adversarialCOO fills a rows×cols builder with triplets that stress the
// compile: duplicates that cancel to exactly zero, −0 stamps, rows and
// columns left empty, and long lines in both directions (past the
// insertion-sort cut-off as well as under it), all in scrambled order.
func adversarialCOO[T Scalar](rng *rand.Rand, rows, cols int, val func() T) *COO[T] {
	c := NewCOO[T](rows, cols)
	// Leave about a third of the rows and columns empty.
	var liveR, liveC []int
	for i := 0; i < rows; i++ {
		if rng.Intn(3) > 0 {
			liveR = append(liveR, i)
		}
	}
	for j := 0; j < cols; j++ {
		if rng.Intn(3) > 0 {
			liveC = append(liveC, j)
		}
	}
	if len(liveR) == 0 || len(liveC) == 0 {
		return c
	}
	negZero := FromFloat[T](math.Copysign(0, -1))
	for k, n := 0, rng.Intn(4*(rows+cols)); k < n; k++ {
		i, j := liveR[rng.Intn(len(liveR))], liveC[rng.Intn(len(liveC))]
		switch v := val(); rng.Intn(6) {
		case 0: // a pair that cancels exactly, possibly next to other stamps
			c.Add(i, j, v)
			c.Add(i, j, -v)
		case 1:
			c.Add(i, j, negZero)
		case 2: // −0 in front of a value
			c.Add(i, j, negZero)
			c.Add(i, j, v)
		default:
			c.Add(i, j, v)
		}
	}
	// One long row and one long column, each stamped in a random order with
	// some duplicates.
	long := 1 + rng.Intn(3*len(liveC))
	i := liveR[rng.Intn(len(liveR))]
	for k := 0; k < long; k++ {
		c.Add(i, liveC[rng.Intn(len(liveC))], val())
	}
	long = 1 + rng.Intn(3*len(liveR))
	j := liveC[rng.Intn(len(liveC))]
	for k := 0; k < long; k++ {
		c.Add(liveR[rng.Intn(len(liveR))], j, val())
	}
	return c
}

// sameCompiled reports whether two compiled arrays are identical, values
// compared bit for bit.
func sameCompiled[T Scalar](p1, i1 []int, v1 []T, p2, i2 []int, v2 []T) bool {
	if !slices.Equal(p1, p2) || !slices.Equal(i1, i2) || len(v1) != len(v2) {
		return false
	}
	for k := range v1 {
		if !scalarBits(v1[k], v2[k]) {
			return false
		}
	}
	return true
}

// scalarBits reports whether x and y are the same scalar bit for bit, the
// sign of a zero part included.
func scalarBits[T Scalar](x, y T) bool {
	switch a := any(x).(type) {
	case float64:
		return math.Float64bits(a) == math.Float64bits(any(y).(float64))
	case complex128:
		b := any(y).(complex128)
		return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
			math.Float64bits(imag(a)) == math.Float64bits(imag(b))
	}
	panic("sparse: unreachable scalar type")
}

func checkCompileAgainstTwoPass[T Scalar](t *testing.T, val func(*rand.Rand) T) {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		rows, cols := rng.Intn(120), rng.Intn(120)
		if trial%10 == 0 {
			rows = 1 + rng.Intn(3) // short and wide: long rows
		}
		c := adversarialCOO(rng, rows, cols, func() T { return val(rng) })
		csr := c.ToCSR()
		p, i, v := compileTwoPass(c, true)
		if !sameCompiled(csr.RowPtr, csr.ColIdx, csr.Val, p, i, v) {
			t.Fatalf("trial %d (%d×%d, %d triplets): ToCSR differs from the two-pass compile", trial, rows, cols, c.NNZ())
		}
		csc := c.ToCSC()
		p, i, v = compileTwoPass(c, false)
		if !sameCompiled(csc.ColPtr, csc.RowIdx, csc.Val, p, i, v) {
			t.Fatalf("trial %d (%d×%d, %d triplets): ToCSC differs from the two-pass compile", trial, rows, cols, c.NNZ())
		}
	}
}

// TestCOOCompileMatchesTwoPass pins the one-pass compile to the two-pass
// reference: same pointers and indices, values equal bit for bit.
func TestCOOCompileMatchesTwoPass(t *testing.T) {
	// Small integers make exact cancellation and repeated sums common;
	// normal draws exercise rounding in the summation order.
	t.Run("float64", func(t *testing.T) {
		checkCompileAgainstTwoPass(t, func(rng *rand.Rand) float64 {
			if rng.Intn(2) == 0 {
				return float64(rng.Intn(7) - 3)
			}
			return rng.NormFloat64()
		})
	})
	t.Run("complex128", func(t *testing.T) {
		checkCompileAgainstTwoPass(t, func(rng *rand.Rand) complex128 {
			switch rng.Intn(3) {
			case 0:
				return complex(float64(rng.Intn(5)-2), float64(rng.Intn(5)-2))
			case 1: // a −0 part next to a nonzero one
				return complex(math.Copysign(0, -1), rng.NormFloat64())
			}
			return complex(rng.NormFloat64(), rng.NormFloat64())
		})
	})
}
