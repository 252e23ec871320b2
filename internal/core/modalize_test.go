package core

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/grid"
	"repro/internal/lti"
)

// TestModalizeMatchesPerBlock pins the concurrent Modalize to the serial
// one: on the RLC and RC ROMs of ckt1–ckt3, every modal block equals the block
// diagonalized on its own (a one-block system, which Modalize runs on one
// goroutine) under math.Float64bits — flags, poles, residues and direct
// term. Run it with -cpu 1,2,8 to cover core counts.
func TestModalizeMatchesPerBlock(t *testing.T) {
	for _, c := range []struct {
		name   string
		scale  float64
		rcOnly bool
	}{
		{grid.Ckt1, 1, false}, {grid.Ckt1, 0.5, true},
		{grid.Ckt2, 0.25, false}, {grid.Ckt2, 0.25, true},
		{grid.Ckt3, 0.25, false}, {grid.Ckt3, 0.25, true},
	} {
		name, scale := c.name, c.scale
		sys := benchmarkSystem(t, name, scale, c.rcOnly)
		rom, err := Reduce(sys, Options{Moments: grid.MatchedMoments(name), WardReduce: true})
		if err != nil {
			t.Fatal(err)
		}
		ms, err := rom.Modalize()
		if err != nil {
			t.Fatal(err)
		}
		modal := 0
		for i := range rom.Blocks {
			one := &lti.BlockDiagSystem{M: rom.M, P: rom.P, Blocks: rom.Blocks[i : i+1]}
			ref, err := one.Modalize()
			if err != nil {
				t.Fatal(err)
			}
			if !sameModalBlock(&ms.Blocks[i], &ref.Blocks[0]) {
				t.Fatalf("%s@%g rc=%v GOMAXPROCS=%d: modal block %d differs from the block modalized alone",
					name, scale, c.rcOnly, runtime.GOMAXPROCS(0), i)
			}
			if ms.Blocks[i].Modal {
				modal++
			}
		}
		if modal == 0 {
			t.Fatalf("%s@%g rc=%v: no block modalized", name, scale, c.rcOnly)
		}
		t.Logf("%s@%g rc=%v: %d blocks, %d modal", name, scale, c.rcOnly, len(rom.Blocks), modal)
	}
}

func sameModalBlock(a, b *lti.ModalBlock) bool {
	if a.Input != b.Input || a.Modal != b.Modal || a.Sym != b.Sym ||
		(a.R == nil) != (b.R == nil) || (a.D == nil) != (b.D == nil) {
		return false
	}
	if a.R != nil && (a.R.Rows != b.R.Rows || a.R.Cols != b.R.Cols || !sameComplexBits(a.R.Data, b.R.Data)) {
		return false
	}
	return sameComplexBits(a.Poles, b.Poles) && sameComplexBits(a.D, b.D)
}

func sameComplexBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if math.Float64bits(real(a[k])) != math.Float64bits(real(b[k])) ||
			math.Float64bits(imag(a[k])) != math.Float64bits(imag(b[k])) {
			return false
		}
	}
	return true
}
