package dense

import (
	"repro/internal/sparse"
)

// DeflationTol is the default relative threshold below which a candidate
// basis vector is declared linearly dependent (deflated) during
// orthonormalization: if orthogonalization shrinks the vector's norm below
// DeflationTol times its original norm, the vector carries no new direction.
const DeflationTol = 1e-10

// OrthoStats counts the long vector–vector products spent in
// orthonormalization. The paper's central cost argument (Sec. III-B) is that
// BDSM needs m·l(l-1)/2 of these where PRIMA needs m·l(m·l-1)/2; the counters
// make that claim measurable.
type OrthoStats struct {
	// DotProducts counts inner products of length-n vectors (projections and
	// reorthogonalization passes both count).
	DotProducts int64
	// Deflated counts candidate vectors dropped as linearly dependent.
	Deflated int64
}

// Basis is a growing set of mutually orthonormal length-n column vectors,
// maintained with modified Gram–Schmidt and one reorthogonalization pass
// (the "twice is enough" rule of Kahan/Parlett).
type Basis[T sparse.Scalar] struct {
	n     int
	cols  [][]T
	stats *OrthoStats
}

// NewBasis returns an empty basis for vectors of length n. If stats is
// non-nil, orthonormalization work is accumulated into it.
func NewBasis[T sparse.Scalar](n int, stats *OrthoStats) *Basis[T] {
	return &Basis[T]{n: n, stats: stats}
}

// Len returns the number of basis vectors.
func (b *Basis[T]) Len() int { return len(b.cols) }

// N returns the vector length.
func (b *Basis[T]) N() int { return b.n }

// Col returns the i-th basis vector (shared storage; callers must not
// modify it).
func (b *Basis[T]) Col(i int) []T { return b.cols[i] }

// Append orthonormalizes v against the basis and appends the result.
// It reports whether the vector was accepted; a vector that is (numerically)
// in the span of the basis is deflated and not appended. v is not modified.
func (b *Basis[T]) Append(v []T) bool {
	return b.AppendTol(v, DeflationTol)
}

// AppendTol is Append with a caller-chosen relative deflation threshold:
// the candidate is rejected when orthogonalization leaves less than
// tol·‖v‖ of new direction. Thresholds well above DeflationTol implement
// adaptive truncation — dropping directions that contribute little, not
// only exact linear dependence.
func (b *Basis[T]) AppendTol(v []T, tol float64) bool {
	if len(v) != b.n {
		panic("dense: Basis.Append length mismatch")
	}
	w := append([]T(nil), v...)
	norm0 := sparse.Nrm2(w)
	if norm0 == 0 {
		if b.stats != nil {
			b.stats.Deflated++
		}
		return false
	}
	// Two MGS passes for numerical orthogonality.
	for pass := 0; pass < 2; pass++ {
		for _, q := range b.cols {
			h := sparse.DotConj(q, w)
			sparse.Axpy(w, -h, q)
			if b.stats != nil {
				b.stats.DotProducts++
			}
		}
	}
	norm := sparse.Nrm2(w)
	if norm <= tol*norm0 {
		if b.stats != nil {
			b.stats.Deflated++
		}
		return false
	}
	sparse.ScaleVec(w, sparse.FromFloat[T](1/norm))
	b.cols = append(b.cols, w)
	return true
}

// Mat returns the basis as an n×k dense matrix (columns are basis vectors).
func (b *Basis[T]) Mat() *Mat[T] {
	m := NewMat[T](b.n, len(b.cols))
	for j, c := range b.cols {
		m.SetCol(j, c)
	}
	return m
}

// Cols returns the underlying column slices (shared storage).
func (b *Basis[T]) Cols() [][]T { return b.cols }

// PanelBasis is the Krylov bases of up to sparse.PanelWidth splitted
// systems, one per lane, kept in the interleaved panel layout (see
// sparse.PanelWidth) so that Gram–Schmidt runs on all lanes in one pass per
// basis vector. Slot s is one panel of n·PanelWidth; its lane k holds lane
// k's next basis vector when lane k accepted its candidate there, and zero
// otherwise. Lane k's basis is therefore its accepted slots in slot order,
// and a zero slot changes nothing in lane k's Gram–Schmidt: its dot is
// exactly zero and its update adds only zeros. The slots are allocated once
// and reused by every panel (Reset).
type PanelBasis struct {
	n     int
	store []float64 // capacity slots of n·PanelWidth, contiguous
	slots int       // slots in use
	lanes int       // real lanes; the rest are padding, never counted
	// index[s][k] is slot s's position in lane k's basis, or -1.
	index [][sparse.PanelWidth]int
	cnt   [sparse.PanelWidth]int // basis vectors per lane
	stats *OrthoStats
}

// NewPanelBasis returns a panel basis for vectors of length n with room
// for capacity slots. If stats is non-nil, orthonormalization work is
// accumulated into it, per real lane, as Basis counts it.
func NewPanelBasis(n, capacity int, stats *OrthoStats) *PanelBasis {
	return &PanelBasis{n: n, store: make([]float64, capacity*n*sparse.PanelWidth),
		index: make([][sparse.PanelWidth]int, 0, capacity), stats: stats}
}

// Reset empties the basis for a new panel whose first lanes lanes are real.
func (b *PanelBasis) Reset(lanes int) {
	if lanes < 0 || lanes > sparse.PanelWidth {
		panic("dense: PanelBasis lane count out of range")
	}
	b.slots, b.lanes, b.cnt, b.index = 0, lanes, [sparse.PanelWidth]int{}, b.index[:0]
}

// Lanes returns the number of real lanes.
func (b *PanelBasis) Lanes() int { return b.lanes }

// Slots returns the number of slots in use.
func (b *PanelBasis) Slots() int { return b.slots }

// Slot returns panel s (shared storage). Slot(Slots()) is where the next
// candidates go before AppendTol.
func (b *PanelBasis) Slot(s int) []float64 {
	size := b.n * sparse.PanelWidth
	return b.store[s*size : (s+1)*size : (s+1)*size]
}

// Index returns slot s's position in lane k's basis, or -1 when lane k has
// no vector in slot s.
func (b *PanelBasis) Index(s, k int) int { return b.index[s][k] }

// LaneLen returns the number of basis vectors of lane k.
func (b *PanelBasis) LaneLen(k int) int { return b.cnt[k] }

// AppendTol orthonormalizes the candidates in Slot(Slots()) and appends
// the slot: for every real lane with live[k], lane k of the new slot is
// exactly the vector Basis.AppendTol(candidate, tol) appends to lane k's
// basis, and the counts it adds to the stats are the same. It reports
// which lanes accepted. Every other lane holds zero afterwards: a real lane
// is cleared, and a padding lane, which holds zero when it enters, is
// scaled by zero.
func (b *PanelBasis) AppendTol(live *[sparse.PanelWidth]bool, tol float64) (accepted [sparse.PanelWidth]bool) {
	const pw = sparse.PanelWidth
	s := b.slots
	w := b.Slot(s)
	var norm0, norm, h, a [pw]float64
	sparse.LaneNrm2(&norm0, w)
	norm = norm0
	// Two MGS passes, as Basis.AppendTol runs them; each slot's update is
	// fused with the next slot's dot, and the last update with the norm.
	if s > 0 {
		sparse.LaneDots(&h, b.Slot(0), w)
		for pass := 0; pass < 2; pass++ {
			for j := 0; j < s; j++ {
				for k := range a {
					a[k] = -h[k]
				}
				if pass == 1 && j == s-1 {
					sparse.LaneAxpyNrm2(&norm, w, &a, b.Slot(j))
				} else {
					sparse.LaneAxpyDot(&h, w, &a, b.Slot(j), b.Slot((j+1)%s))
				}
			}
		}
	}
	var scale [pw]float64
	var index [pw]int
	for k := range index {
		index[k] = -1
	}
	for k := 0; k < b.lanes; k++ {
		if !live[k] {
			continue
		}
		if norm0[k] == 0 {
			b.deflated()
			continue
		}
		if b.stats != nil {
			b.stats.DotProducts += 2 * int64(b.cnt[k])
		}
		if norm[k] <= tol*norm0[k] {
			b.deflated()
			continue
		}
		accepted[k], index[k], scale[k] = true, b.cnt[k], 1/norm[k]
		b.cnt[k]++
	}
	sparse.LaneScale(w, &scale)
	for k := 0; k < b.lanes; k++ {
		if !accepted[k] {
			for i := k; i < len(w); i += pw {
				w[i] = 0
			}
		}
	}
	b.index = append(b.index, index)
	b.slots++
	return accepted
}

func (b *PanelBasis) deflated() {
	if b.stats != nil {
		b.stats.Deflated++
	}
}
