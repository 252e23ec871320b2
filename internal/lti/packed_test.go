package lti

import (
	"math"
	"math/cmplx"
	"testing"
)

// packedSystems returns the fixture systems the batched kernels must agree
// with the scalar paths on: the symmetric RC ROM, the non-symmetric golden
// ROM, and a partially-modal variant with a forced fallback block.
func packedSystems(t *testing.T) map[string]*ModalSystem {
	t.Helper()
	out := make(map[string]*ModalSystem)
	for name, bd := range map[string]*BlockDiagSystem{
		"rc":     rcBlockDiag(),
		"golden": goldenBlockDiag(),
	} {
		ms, err := bd.Modalize()
		if err != nil {
			t.Fatalf("%s: Modalize: %v", name, err)
		}
		out[name] = ms
	}
	demoted, err := rcBlockDiag().Modalize()
	if err != nil {
		t.Fatal(err)
	}
	demoteBlock(demoted, 1)
	out["rc-fallback"] = demoted
	return out
}

// demoteBlock strips block i's modal form, forcing every evaluation that
// touches it onto the LU fallback path.
func demoteBlock(ms *ModalSystem, i int) {
	ms.Blocks[i] = ModalBlock{Input: ms.BD.Blocks[i].Input}
}

func allEntries(m, p int) [][2]int {
	var entries [][2]int
	for r := 0; r < p; r++ {
		for c := 0; c < m; c++ {
			entries = append(entries, [2]int{r, c})
		}
	}
	return entries
}

// TestPackedSweepMatchesScalar pins the batched sweep kernel against the
// scalar per-entry sweep on every entry of every fixture — including the
// fallback-forced model — to 1e-12. The kernels differ only in rounding
// (shared reciprocal-then-multiply vs per-term division), so near machine
// precision is required, not merely modeling accuracy.
func TestPackedSweepMatchesScalar(t *testing.T) {
	omegas := logOmegas(1e-2, 1e3, 29)
	for name, ms := range packedSystems(t) {
		mp := ms.Pack()
		_, m, p := ms.Dims()
		entries := allEntries(m, p)
		dst := make([]complex128, len(entries)*len(omegas))
		if err := mp.SweepEntriesInto(dst, entries, omegas); err != nil {
			t.Fatalf("%s: SweepEntriesInto: %v", name, err)
		}
		want := make([]complex128, len(omegas))
		for e, ent := range entries {
			if err := ms.SweepEntryInto(want, ent[0], ent[1], omegas); err != nil {
				t.Fatalf("%s: SweepEntryInto(%d,%d): %v", name, ent[0], ent[1], err)
			}
			got := dst[e*len(omegas) : (e+1)*len(omegas)]
			for w := range want {
				if d := cmplx.Abs(got[w] - want[w]); d > 1e-12*(1+cmplx.Abs(want[w])) {
					t.Fatalf("%s: entry (%d,%d) ω=%g: packed %v vs scalar %v (|Δ| = %g)",
						name, ent[0], ent[1], omegas[w], got[w], want[w], d)
				}
			}
		}
	}
}

// TestPackedSweepSubsetAndDuplicates covers the shapes coalesced serving
// produces: an arbitrary subset of entries, including the same entry
// requested twice (two clients asking for the same sweep in one batch).
func TestPackedSweepSubsetAndDuplicates(t *testing.T) {
	ms := packedSystems(t)["rc-fallback"]
	mp := ms.Pack()
	omegas := logOmegas(1e-1, 1e2, 11)
	entries := [][2]int{{1, 0}, {0, 1}, {1, 0}}
	dst := make([]complex128, len(entries)*len(omegas))
	if err := mp.SweepEntriesInto(dst, entries, omegas); err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, len(omegas))
	for e, ent := range entries {
		if err := ms.SweepEntryInto(want, ent[0], ent[1], omegas); err != nil {
			t.Fatal(err)
		}
		got := dst[e*len(omegas) : (e+1)*len(omegas)]
		for w := range want {
			if d := cmplx.Abs(got[w] - want[w]); d > 1e-12*(1+cmplx.Abs(want[w])) {
				t.Fatalf("entry %d (%d,%d) ω=%g: packed %v vs scalar %v", e, ent[0], ent[1], omegas[w], got[w], want[w])
			}
		}
	}
	// Duplicate entries must come out bit-identical: same kernel pass, same
	// accumulation order.
	for w := 0; w < len(omegas); w++ {
		if dst[0*len(omegas)+w] != dst[2*len(omegas)+w] {
			t.Fatalf("duplicate entries disagree at ω index %d", w)
		}
	}
}

// packedReference evaluates entry (row, col) over omegas straight from the
// ModalBlocks, in the order the packed layout promises: the column's poles
// concatenated in block order, each term as residue × reciprocal, the
// column's direct terms summed in block order and added after every pole,
// and fallback blocks last, in block order, through their LU column.
func packedReference(t *testing.T, ms *ModalSystem, row, col int, omegas []float64) []complex128 {
	t.Helper()
	out := make([]complex128, len(omegas))
	var d complex128
	hasD := false
	for i := range ms.Blocks {
		mb := &ms.Blocks[i]
		if mb.Input != col || !mb.Modal {
			continue
		}
		for k, lam := range mb.Poles {
			r := mb.R.At(k, row)
			for w, omega := range omegas {
				recip := 1 / (complex(0, omega) - lam)
				out[w] += r * recip
			}
		}
		if mb.D != nil {
			d += mb.D[row]
			hasD = true
		}
	}
	if hasD {
		for w := range out {
			out[w] += d
		}
	}
	buf := make([]complex128, ms.BD.P)
	for i := range ms.Blocks {
		if mb := &ms.Blocks[i]; mb.Input != col || mb.Modal {
			continue
		}
		for w, omega := range omegas {
			c, err := blockColumn(&ms.BD.Blocks[i], complex(0, omega))
			if err != nil {
				t.Fatal(err)
			}
			for r := range buf {
				buf[r] = 0
				buf[r] += c[r]
			}
			out[w] += buf[row]
		}
	}
	return out
}

// TestPackedSweepBitExact pins the packed layout bit for bit: every entry of
// SweepEntriesInto must equal packedReference under math.Float64bits. A
// tolerance comparison would not notice a changed summation order or a
// mis-indexed entry-major residue. The fixtures cover several modal blocks
// on one column, direct terms on one and on two blocks of a column, a
// fallback block, and duplicate entries.
func TestPackedSweepBitExact(t *testing.T) {
	twoDirect := goldenModalSystem()
	twoDirect.Blocks[0].D = []complex128{complex(-0.125, 0.5), complex(3e-3, -7)}
	demoted, err := rcBlockDiag().Modalize()
	if err != nil {
		t.Fatal(err)
	}
	demoteBlock(demoted, 1)
	golden, err := goldenBlockDiag().Modalize()
	if err != nil {
		t.Fatal(err)
	}
	omegas := logOmegas(1e-2, 1e3, 29)
	for name, ms := range map[string]*ModalSystem{
		"golden-modal":      goldenModalSystem(),
		"golden-two-direct": twoDirect,
		"rc-fallback":       demoted,
		"golden":            golden,
	} {
		if err := ms.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, m, p := ms.Dims()
		entries := allEntries(m, p)
		entries = append(entries, entries[0], entries[len(entries)-1], entries[0])
		dst := make([]complex128, len(entries)*len(omegas))
		if err := ms.Pack().SweepEntriesInto(dst, entries, omegas); err != nil {
			t.Fatalf("%s: SweepEntriesInto: %v", name, err)
		}
		for e, ent := range entries {
			want := packedReference(t, ms, ent[0], ent[1], omegas)
			got := dst[e*len(omegas) : (e+1)*len(omegas)]
			for w := range want {
				if math.Float64bits(real(got[w])) != math.Float64bits(real(want[w])) ||
					math.Float64bits(imag(got[w])) != math.Float64bits(imag(want[w])) {
					t.Fatalf("%s: entry %d (%d,%d) ω=%g: packed %v, reference %v",
						name, e, ent[0], ent[1], omegas[w], got[w], want[w])
				}
			}
		}
	}
}

// TestPackedValidation covers the defensive paths: mis-sized destinations and
// out-of-range entries must error, empty batches are no-ops.
func TestPackedValidation(t *testing.T) {
	ms := packedSystems(t)["rc"]
	mp := ms.Pack()
	omegas := logOmegas(1e-1, 1e1, 3)
	if err := mp.SweepEntriesInto(make([]complex128, 1), [][2]int{{0, 0}}, omegas); err == nil {
		t.Error("short sweep dst accepted")
	}
	if err := mp.SweepEntriesInto(make([]complex128, len(omegas)), [][2]int{{0, 99}}, omegas); err == nil {
		t.Error("out-of-range entry accepted")
	}
	if err := mp.SweepEntriesInto(make([]complex128, len(omegas)), [][2]int{{-1, 0}}, omegas); err == nil {
		t.Error("negative row accepted")
	}
	if err := mp.SweepEntriesInto(nil, nil, omegas); err != nil {
		t.Errorf("empty entry batch: %v", err)
	}
}
