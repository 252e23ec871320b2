package sparse

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// IsValid reports whether p is a bijection on [0, len(p)).
func (p Perm) IsValid() bool {
	seen := make([]bool, len(p))
	for _, pi := range p {
		if pi < 0 || pi >= len(p) || seen[pi] {
			return false
		}
		seen[pi] = true
	}
	return true
}

// TestDefaultOrderingIsAMD pins the zero LUOptions to the AMD ordering for
// both factorizations: the same permutation and fill as an explicit
// OrderAMD, and strictly less fill than the natural order.
func TestDefaultOrderingIsAMD(t *testing.T) {
	a := laplacian2D(40, 40, 0.1)
	lu := func(o LUOptions) *LU[float64] {
		f, err := FactorLU(a, o)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	chol := func(o LUOptions) *Cholesky {
		f, err := FactorCholesky(a, o)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	def, amd, nat := lu(LUOptions{}), lu(LUOptions{Ordering: OrderAMD}), lu(LUOptions{Ordering: OrderNatural})
	if !slices.Equal(def.q, amd.q) || def.NNZ() != amd.NNZ() {
		t.Errorf("LU with LUOptions{}: fill %d, want OrderAMD's %d and its permutation", def.NNZ(), amd.NNZ())
	}
	if def.NNZ() >= nat.NNZ() {
		t.Errorf("LU default fill %d not below natural %d", def.NNZ(), nat.NNZ())
	}
	cdef, camd, cnat := chol(LUOptions{}), chol(LUOptions{Ordering: OrderAMD}), chol(LUOptions{Ordering: OrderNatural})
	if !slices.Equal(cdef.q, camd.q) || cdef.NNZ() != camd.NNZ() {
		t.Errorf("Cholesky with LUOptions{}: fill %d, want OrderAMD's %d and its permutation", cdef.NNZ(), camd.NNZ())
	}
	if cdef.NNZ() >= cnat.NNZ() {
		t.Errorf("Cholesky default fill %d not below natural %d", cdef.NNZ(), cnat.NNZ())
	}
}

// TestAMDValidOnEdgeCases checks that AMD returns a permutation of the right
// length on patterns that reach its special paths (TestAMDEmptyAndSingleton
// covers n = 0 and 1): isolated nodes, a row dense enough to be set aside,
// several components, patterns that are not symmetric, and repeated row
// indices.
func TestAMDValidOnEdgeCases(t *testing.T) {
	coo := func(n int, entries ...[2]int) *CSC[float64] {
		c := NewCOO[float64](n, n)
		for _, e := range entries {
			c.Add(e[0], e[1], 1)
		}
		return c.ToCSC()
	}
	var arrow, lower, fullRow [][2]int
	const hub = 17
	for i := 0; i < 300; i++ {
		arrow = append(arrow, [2]int{i, i}, [2]int{hub, i}, [2]int{i, hub})
		fullRow = append(fullRow, [2]int{0, i}, [2]int{i, i})
		for d := 1; d <= 3 && i+d < 300; d++ {
			lower = append(lower, [2]int{i + d, i})
		}
	}
	cases := map[string]*CSC[float64]{
		"n=1 no entries": coo(1),
		"diagonal":       coo(50, [2]int{0, 0}, [2]int{49, 49}),
		"empty rows":     coo(6, [2]int{0, 1}, [2]int{1, 0}, [2]int{2, 2}, [2]int{1, 2}),
		"arrowhead":      coo(300, arrow...),
		"disconnected": coo(8, [2]int{0, 1}, [2]int{1, 2}, [2]int{3, 4}, [2]int{4, 5},
			[2]int{5, 6}, [2]int{6, 3}, [2]int{3, 5}, [2]int{7, 7}),
		"strictly lower":  coo(300, lower...),
		"one full row":    coo(300, fullRow...),
		"unsymmetric 2x2": coo(2, [2]int{1, 0}),
		// Row 1 repeated in column 0, and row 2 in column 1: the CSC
		// contract forbids it, the ordering tolerates it.
		"repeated rows": NewCSC(3, 3, []int{0, 4, 6, 7}, []int{0, 1, 1, 2, 2, 2, 2},
			[]float64{1, 1, 1, 1, 1, 1, 1}),
	}
	for name, a := range cases {
		n, _ := a.Dims()
		p := AMD(a)
		if len(p) != n || !p.IsValid() {
			t.Errorf("%s: AMD = %v, not a permutation of %d", name, p, n)
		}
	}
	if p := AMD(cases["arrowhead"]); p[len(p)-1] != hub {
		t.Errorf("arrowhead: dense hub ordered at %d, want last", slices.Index(p, hub))
	}
}

// exactDegreeCholFill is the Cholesky fill of laplacian2D(k, k, 0.1) under
// the minimum-degree ordering with exact external degrees that AMD
// replaced. Approximate degrees may cost at most 10% more.
var exactDegreeCholFill = map[int]int{10: 657, 20: 3855, 40: 22495, 60: 59582}

func TestAMDFillNearExactDegreeOnGrids(t *testing.T) {
	for k, exact := range exactDegreeCholFill {
		ch, err := FactorCholesky(laplacian2D(k, k, 0.1), LUOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%d×%d grid: fill %d, exact-degree ordering %d", k, k, ch.NNZ(), exact)
		if 10*ch.NNZ() > 11*exact {
			t.Errorf("%d×%d grid: AMD fill %d exceeds 1.10 × exact-degree fill %d", k, k, ch.NNZ(), exact)
		}
	}
}

// permuteSymCOO is P A Pᵀ through a triplet round trip, the reference
// PermuteSym must reproduce exactly.
func permuteSymCOO(a *CSC[float64], p Perm) *CSC[float64] {
	n, _ := a.Dims()
	inv := p.Inverse()
	c := NewCOO[float64](n, n)
	for j := 0; j < n; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			c.Add(inv[a.RowIdx[k]], inv[j], a.Val[k])
		}
	}
	return c.ToCSC()
}

func TestPermuteSymMatchesCOO(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(80)
		c := NewCOO[float64](n, n)
		for k := int(float64(n*n) * 0.3 * rng.Float64()); k >= 0; k-- {
			c.Add(rng.Intn(n), rng.Intn(n), rng.NormFloat64())
		}
		// Often one full column, long enough to take the sort.Sort path.
		if j := rng.Intn(n); rng.Intn(2) == 0 {
			for i := 0; i < n; i++ {
				c.Add(i, j, 1)
			}
		}
		a := c.ToCSC()
		// Explicit zeros, which both paths drop.
		for k := range a.Val {
			if rng.Intn(7) == 0 {
				a.Val[k] = 0
			}
		}
		p := Perm(rng.Perm(n))
		got, want := a.PermuteSym(p), permuteSymCOO(a, p)
		return slices.Equal(got.ColPtr, want.ColPtr) && slices.Equal(got.RowIdx, want.RowIdx) &&
			slices.Equal(got.Val, want.Val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
