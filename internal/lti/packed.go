package lti

import "fmt"

// ModalPacked is a structure-of-arrays packing of a ModalSystem, built for
// batched evaluation. The AoS []ModalBlock layout is right for constructing
// and validating the modal form, but a batched kernel — many transfer-matrix
// entries × many frequencies — wants the pole and residue data of each input
// column contiguous, so the expensive per-(pole, frequency) complex
// reciprocal is computed once and shared by every entry reading that column.
//
// Per input column the packing holds the concatenated poles of every modal
// block driven by that input (in block order), the residues entry-major
// (resT[r·q+k], the layout SweepEntriesInto streams), the block direct terms
// summed into one vector, and the indices of fallback (non-modal) blocks,
// which the kernel still evaluates per frequency through a one-shot LU.
//
// A ModalPacked is immutable after construction and safe for concurrent use.
type ModalPacked struct {
	ms   *ModalSystem
	m, p int
	cols []packedColumn
}

// packedColumn is the SoA modal data of one input column.
type packedColumn struct {
	poles []complex128 // q' concatenated finite poles, block order
	resT  []complex128 // entry-major residues: resT[r*q'+k]
	d     []complex128 // summed direct term (length p), nil when absent
	// fallback indexes the source blocks on this column without a modal
	// form.
	fallback []int
}

// Pack builds the structure-of-arrays form of the modal system. The source
// system is shared, not copied; fallback blocks keep evaluating through it.
func (ms *ModalSystem) Pack() *ModalPacked {
	_, m, p := ms.Dims()
	mp := &ModalPacked{ms: ms, m: m, p: p, cols: make([]packedColumn, m)}
	for j := 0; j < m; j++ {
		q := 0
		for i := range ms.Blocks {
			if mb := &ms.Blocks[i]; mb.Input == j && mb.Modal {
				q += len(mb.Poles)
			}
		}
		pc := &mp.cols[j]
		pc.poles = make([]complex128, 0, q)
		pc.resT = make([]complex128, q*p)
		for i := range ms.Blocks {
			mb := &ms.Blocks[i]
			if mb.Input != j {
				continue
			}
			if !mb.Modal {
				pc.fallback = append(pc.fallback, i)
				continue
			}
			k0 := len(pc.poles)
			for k := range mb.Poles {
				for r, v := range mb.R.Row(k) {
					pc.resT[r*q+k0+k] = v
				}
			}
			pc.poles = append(pc.poles, mb.Poles...)
			if mb.D != nil {
				if pc.d == nil {
					pc.d = make([]complex128, p)
				}
				for r, dv := range mb.D {
					pc.d[r] += dv
				}
			}
		}
	}
	return mp
}

// Dims returns (Σ block orders, M, P) of the source system.
func (mp *ModalPacked) Dims() (n, m, p int) { return mp.ms.Dims() }

// SweepEntriesInto evaluates H[row][col](jωₖ) for every requested (row, col)
// entry over one shared frequency grid, into dst laid out entry-major:
// dst[e·len(omegas)+k] is entry e at ωₖ. Entries are (row, col) pairs.
//
// The kernel makes one pole-major pass per column: each pole's reciprocal
// denominators 1/(jωₖ−λ) are computed once — the division is the expensive
// part of a residue evaluation — and reused by every entry reading that
// column, so e entries on one column cost one division pass plus e
// multiply-accumulate passes instead of e division passes. Fallback blocks
// pay one LU per frequency, shared across the entries of their column.
//
//pgmor:noalloc
func (mp *ModalPacked) SweepEntriesInto(dst []complex128, entries [][2]int, omegas []float64) error {
	nw := len(omegas)
	if len(dst) != len(entries)*nw {
		return fmt.Errorf("lti: packed sweep dst length %d, want %d entries × %d freqs = %d",
			len(dst), len(entries), nw, len(entries)*nw)
	}
	for _, e := range entries {
		if e[0] < 0 || e[0] >= mp.p || e[1] < 0 || e[1] >= mp.m {
			return fmt.Errorf("lti: entry (%d,%d) out of range %d×%d", e[0], e[1], mp.p, mp.m)
		}
	}
	for i := range dst {
		dst[i] = 0
	}
	if nw == 0 || len(entries) == 0 {
		return nil
	}
	// Group entry indices by column so each column's pole data is walked
	// exactly once.
	byCol := make(map[int][]int, len(entries)) //pgmor:alloc per-call column grouping, O(entries); amortized over the whole batch
	for i, e := range entries {
		byCol[e[1]] = append(byCol[e[1]], i) //pgmor:alloc builds the column grouping above
	}
	recip := make([]complex128, nw) //pgmor:alloc one reciprocal row per call, O(omegas); amortized over the whole batch
	var colBuf []complex128         // lazily sized; only fallback blocks need it
	for col, idxs := range byCol {
		pc := &mp.cols[col]
		q := len(pc.poles)
		for k := 0; k < q; k++ {
			lam := pc.poles[k]
			for w, omega := range omegas {
				recip[w] = 1 / (complex(0, omega) - lam)
			}
			for _, e := range idxs {
				r := pc.resT[entries[e][0]*q+k]
				out := dst[e*nw : (e+1)*nw]
				for w := range out {
					out[w] += r * recip[w]
				}
			}
		}
		if pc.d != nil {
			for _, e := range idxs {
				dv := pc.d[entries[e][0]]
				out := dst[e*nw : (e+1)*nw]
				for w := range out {
					out[w] += dv
				}
			}
		}
		for _, bi := range pc.fallback {
			if colBuf == nil {
				colBuf = make([]complex128, mp.p) //pgmor:alloc lazy fallback scratch; never taken on fully-modal systems
			}
			for w, omega := range omegas {
				for r := range colBuf {
					colBuf[r] = 0
				}
				//pgmor:alloc non-modal blocks fall back to one LU per frequency; cold by construction
				if err := mp.ms.fallbackColumn(colBuf, bi, complex(0, omega)); err != nil {
					return err
				}
				for _, e := range idxs {
					dst[e*nw+w] += colBuf[entries[e][0]]
				}
			}
		}
	}
	return nil
}
