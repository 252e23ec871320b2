package dense

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sparse"
)

// TestPanelBasisMatchesBasis drives six real lanes and two padding lanes
// through two Krylov-style rounds (each restarting every real lane, as a
// second expansion point does) and requires every lane's basis to equal a
// Basis fed the same candidates under ==, with the same counts. Candidates
// include a zero start (immediate deflation), a vector in the lane's span
// (exact deflation), a rejected start with an infinite entry and, at a
// loose tolerance, truncation, so lanes retire at different levels and
// later rounds see their zero slots.
func TestPanelBasisMatchesBasis(t *testing.T) {
	const pw, lanes, levels, n = sparse.PanelWidth, 6, 4, 40
	rng := rand.New(rand.NewSource(9))
	var st, refSt OrthoStats
	pb := NewPanelBasis(n, 2*levels, &st)
	ref := make([]*Basis[float64], lanes)
	for k := range ref {
		ref[k] = NewBasis[float64](n, &refSt)
	}
	pb.Reset(lanes)
	for round := 0; round < 2; round++ {
		var live [pw]bool
		for k := 0; k < lanes; k++ {
			live[k] = true
		}
		tol := DeflationTol
		for level := 0; level < levels && live != [pw]bool{}; level++ {
			x := pb.Slot(pb.Slots())
			clear(x)
			cand := make([][]float64, lanes)
			for k := 0; k < lanes; k++ {
				if !live[k] {
					continue
				}
				c := make([]float64, n)
				switch {
				case k == 1 && round == 0:
					// zero start vector
				case k == 5 && round == 0:
					// A start vector with an infinite entry has norm
					// +Inf both before and after (no) orthogonalization,
					// so it is rejected; the next round must not see it.
					c[7] = math.Inf(1)
				case k == 2 && level == 2:
					for i := range c {
						c[i] = 3 * ref[k].Col(0)[i]
					}
				default:
					for i := range c {
						c[i] = rng.NormFloat64()
					}
					if k == 3 && level > 0 {
						// Mostly in the span: truncated at tol 0.5.
						for i := range c {
							c[i] = ref[k].Col(ref[k].Len() - 1)[i] + 1e-3*c[i]
						}
					}
				}
				cand[k] = c
				for i, v := range c {
					x[i*pw+k] = v
				}
			}
			if level > 0 {
				tol = 0.5
			}
			got := pb.AppendTol(&live, tol)
			for k := 0; k < lanes; k++ {
				if !live[k] {
					continue
				}
				if want := ref[k].AppendTol(cand[k], tol); got[k] != want {
					t.Fatalf("round %d level %d lane %d: accepted %v, Basis %v", round, level, k, got[k], want)
				}
			}
			live = got
		}
	}
	if st != refSt {
		t.Fatalf("stats %+v, Basis %+v", st, refSt)
	}
	retired := 0
	for k := 0; k < lanes; k++ {
		if pb.LaneLen(k) != ref[k].Len() {
			t.Fatalf("lane %d: %d vectors, Basis %d", k, pb.LaneLen(k), ref[k].Len())
		}
		if ref[k].Len() < 2*levels {
			retired++
		}
		for s := 0; s < pb.Slots(); s++ {
			j := pb.Index(s, k)
			slot := pb.Slot(s)
			for i := 0; i < n; i++ {
				v := slot[i*pw+k]
				if j < 0 && v != 0 || j >= 0 && v != ref[k].Col(j)[i] {
					t.Fatalf("lane %d slot %d (index %d) row %d: %v", k, s, j, i, v)
				}
			}
		}
	}
	if retired < 3 {
		t.Fatalf("only %d lanes retired early; the case exercises too little", retired)
	}
}
