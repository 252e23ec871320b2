package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRCMIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		a := randomSquareCSC(rng, n, 0.1)
		return RCM(a).IsValid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

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

func TestRCMDisconnectedComponents(t *testing.T) {
	// Two disjoint 2-cliques plus an isolated node.
	c := NewCOO[float64](5, 5)
	c.Add(0, 1, 1)
	c.Add(1, 0, 1)
	c.Add(2, 3, 1)
	c.Add(3, 2, 1)
	for i := 0; i < 5; i++ {
		c.Add(i, i, 1)
	}
	p := RCM(c.ToCSC())
	if !p.IsValid() {
		t.Fatalf("RCM on disconnected graph invalid: %v", p)
	}
}

func TestRCMReducesBandwidthOnGrid(t *testing.T) {
	a := laplacian2D(30, 30, 0.1)
	band := func(m *CSC[float64]) int {
		b := 0
		for j := 0; j < 900; j++ {
			for k := m.ColPtr[j]; k < m.ColPtr[j+1]; k++ {
				d := m.RowIdx[k] - j
				if d < 0 {
					d = -d
				}
				if d > b {
					b = d
				}
			}
		}
		return b
	}
	// Scramble the natural order first, then check RCM restores locality.
	rng := rand.New(rand.NewSource(3))
	scramble := Perm(rng.Perm(900))
	scrambled := a.PermuteSym(scramble)
	after := band(scrambled.PermuteSym(RCM(scrambled)))
	if before := band(scrambled); after >= before {
		t.Errorf("RCM bandwidth %d not below scrambled bandwidth %d", after, before)
	}
	if after > 120 {
		t.Errorf("RCM bandwidth %d too large for a 30×30 grid (want ≲ 4·30)", after)
	}
}

func TestAMDBeatsNaturalFillOnGrid(t *testing.T) {
	a := laplacian2D(32, 32, 0.1)
	luAMD, err := FactorLU(a, LUOptions{Ordering: OrderAMD})
	if err != nil {
		t.Fatal(err)
	}
	luRCM, err := FactorLU(a, LUOptions{Ordering: OrderRCM})
	if err != nil {
		t.Fatal(err)
	}
	luNat, err := FactorLU(a, LUOptions{Ordering: OrderNatural})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fill: natural=%d rcm=%d amd=%d", luNat.NNZ(), luRCM.NNZ(), luAMD.NNZ())
	if luAMD.NNZ() >= luNat.NNZ() {
		t.Errorf("AMD fill %d not below natural %d", luAMD.NNZ(), luNat.NNZ())
	}
}

func TestOrderingString(t *testing.T) {
	cases := map[Ordering]string{OrderNatural: "natural", OrderRCM: "rcm", OrderAMD: "amd", Ordering(99): "unknown"}
	for o, want := range cases {
		if got := o.String(); got != want {
			t.Errorf("Ordering(%d).String() = %q, want %q", o, got, want)
		}
	}
}
