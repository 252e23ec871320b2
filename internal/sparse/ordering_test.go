package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAMDIsPermutation(t *testing.T) {
	// Unsymmetric random patterns from sparse to nearly dense, so that
	// dense rows, supervariables and garbage collection all occur.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(120)
		a := randomSquareCSC(rng, n, rng.Float64())
		return AMD(a).IsValid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestAMDEmptyAndSingleton(t *testing.T) {
	if p := AMD(NewCOO[float64](0, 0).ToCSC()); len(p) != 0 {
		t.Errorf("AMD of empty matrix = %v", p)
	}
	c := NewCOO[float64](1, 1)
	c.Add(0, 0, 1)
	if p := AMD(c.ToCSC()); len(p) != 1 || p[0] != 0 {
		t.Errorf("AMD of singleton = %v", p)
	}
}

func TestAMDBeatsNaturalFillOnGrid(t *testing.T) {
	a := laplacian2D(32, 32, 0.1)
	luAMD, err := FactorLU(a, LUOptions{Ordering: OrderAMD})
	if err != nil {
		t.Fatal(err)
	}
	luNat, err := FactorLU(a, LUOptions{Ordering: OrderNatural})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fill: natural=%d amd=%d", luNat.NNZ(), luAMD.NNZ())
	if luAMD.NNZ() >= luNat.NNZ() {
		t.Errorf("AMD fill %d not below natural %d", luAMD.NNZ(), luNat.NNZ())
	}
}

func TestOrderingString(t *testing.T) {
	cases := map[Ordering]string{OrderNatural: "natural", OrderAMD: "amd", Ordering(99): "unknown"}
	for o, want := range cases {
		if got := o.String(); got != want {
			t.Errorf("Ordering(%d).String() = %q, want %q", o, got, want)
		}
	}
}
