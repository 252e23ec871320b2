// Package param is the parametric Δ-scale interpolation operator over the
// modal ROM library (per Safaee–Gugercin, Structure-preserving Model
// Reduction of Parametric Power Networks): given block-diagonal modal ROMs
// of the same benchmark reduced at two neighboring Scale points, it matches
// poles per block across the anchors (nearest neighbor in the complex plane,
// with ambiguity and stability guards), interpolates matched poles and
// residues linearly in log-Scale, and realizes the interpolated pole–residue
// data back into a real BlockDiagSystem — so the result is a first-class ROM
// the serving layer can evaluate, sweep, simulate, and cache exactly like a
// reduced one, at interpolation cost (O(model size)) instead of reduction
// cost (Krylov + orthonormalization over the full grid).
//
// The operator is deliberately conservative: anchors must have identical
// block structure and full modal coverage, every pole must find an
// unambiguous partner within a bounded relative shift, and the interpolated
// set must stay conjugate-closed and stable. Any violation returns an error
// tagged ErrIncompatible or ErrAmbiguous, which the serving layer treats as
// "fall back to a real reduction" — interpolation is an optimization, never
// a correctness risk.
package param

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/dense"
	"repro/internal/lti"
)

// ErrIncompatible reports anchors whose ROMs cannot be interpolated at all:
// mismatched dimensions, block structure, modal coverage, or pole counts.
var ErrIncompatible = errors.New("param: anchors are not interpolation-compatible")

// ErrAmbiguous reports that pole matching between the anchors is not
// trustworthy: a pole moved farther than the guard allows, two poles contend
// for one partner, or the interpolated set lost conjugate closure. The caller
// should reduce directly instead.
var ErrAmbiguous = errors.New("param: pole matching is ambiguous")

// DefaultMaxPoleShift bounds the relative distance |λa−λb| / max(|λa|,|λb|)
// a matched pole pair may span: matched poles may move by up to 75% of their
// magnitude between anchors — generous for within-plateau Δ-scale steps
// (poles move ∝ scale³ there) while rejecting matchings that pair unrelated
// poles across a grid re-randomization.
const DefaultMaxPoleShift = 0.75

// stabTol is the relative positive real part above which an interpolated
// pole counts as unstable (mirrors the modal construction guard).
const stabTol = 1e-8

// Anchor is one stored library point: a fully evaluable modal ROM at a known
// Scale.
type Anchor struct {
	Scale float64
	Modal *lti.ModalSystem
}

// Report describes how an interpolant was produced — the serving layer
// surfaces it so operators can see what a Δ-scale request actually did.
type Report struct {
	// Scales are the anchor scales used, ascending; T is the interpolation
	// coordinate in log-Scale (0 at Scales[0], 1 at Scales[1]).
	Scales [2]float64 `json:"scales"`
	T      float64    `json:"t"`
	// MatchedPoles counts pole pairs matched across the anchors;
	// MaxPoleShift is the largest relative distance any matched pair spans.
	MatchedPoles int     `json:"matched_poles"`
	MaxPoleShift float64 `json:"max_pole_shift"`
}

// Interpolate builds the ROM at the requested scale from two anchors
// bracketing it. The result carries a full modal form (every block Modal)
// and a real block-diagonal realization of exactly that form, so modal and
// factored evaluation paths agree to machine precision.
func Interpolate(a, b Anchor, scale float64) (*lti.ModalSystem, *Report, error) {
	if a.Scale > b.Scale {
		a, b = b, a
	}
	if !(a.Scale > 0) || !(b.Scale > a.Scale) {
		return nil, nil, fmt.Errorf("%w: anchor scales %g, %g", ErrIncompatible, a.Scale, b.Scale)
	}
	if scale < a.Scale || scale > b.Scale {
		return nil, nil, fmt.Errorf("%w: scale %g outside anchor range [%g, %g] (no extrapolation)",
			ErrIncompatible, scale, a.Scale, b.Scale)
	}
	if err := compatible(a.Modal, b.Modal); err != nil {
		return nil, nil, err
	}
	// Log-scale interpolation coordinate: pole trajectories of the scaled
	// electrical family are power laws in scale, which are linear in
	// log-scale — the coordinate where a two-point chord is most accurate.
	t := (math.Log(scale) - math.Log(a.Scale)) / (math.Log(b.Scale) - math.Log(a.Scale))

	rep := &Report{Scales: [2]float64{a.Scale, b.Scale}, T: t}
	_, m, p := a.Modal.Dims()
	blocks := make([]lti.ModalBlock, len(a.Modal.Blocks))
	for i := range a.Modal.Blocks {
		mb, err := interpolateBlock(&a.Modal.Blocks[i], &b.Modal.Blocks[i], t, rep)
		if err != nil {
			return nil, nil, fmt.Errorf("block %d: %w", i, err)
		}
		blocks[i] = mb
	}
	ms, err := Realize(blocks, m, p)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: realization: %v", ErrAmbiguous, err)
	}
	return ms, rep, nil
}

// compatible rejects anchor pairs whose ROMs do not share the structure the
// per-block matching assumes.
func compatible(a, b *lti.ModalSystem) error {
	if a == nil || b == nil {
		return fmt.Errorf("%w: missing modal form", ErrIncompatible)
	}
	an, am, ap := a.Dims()
	bn, bm, bp := b.Dims()
	if am != bm || ap != bp {
		return fmt.Errorf("%w: I/O dims %d×%d vs %d×%d", ErrIncompatible, ap, am, bp, bm)
	}
	if an != bn || len(a.Blocks) != len(b.Blocks) {
		return fmt.Errorf("%w: order/blocks %d/%d vs %d/%d", ErrIncompatible, an, len(a.Blocks), bn, len(b.Blocks))
	}
	for i := range a.Blocks {
		ba, bb := &a.Blocks[i], &b.Blocks[i]
		if !ba.Modal || !bb.Modal {
			return fmt.Errorf("%w: block %d lacks a modal form in one anchor", ErrIncompatible, i)
		}
		if ba.Input != bb.Input {
			return fmt.Errorf("%w: block %d drives input %d vs %d", ErrIncompatible, i, ba.Input, bb.Input)
		}
		if len(ba.Poles) != len(bb.Poles) {
			return fmt.Errorf("%w: block %d has %d vs %d poles", ErrIncompatible, i, len(ba.Poles), len(bb.Poles))
		}
		if (ba.D == nil) != (bb.D == nil) {
			return fmt.Errorf("%w: block %d carries a direct term in only one anchor", ErrIncompatible, i)
		}
	}
	return nil
}

// interpolateBlock matches block b's poles to block a's and blends poles,
// residues, and direct terms at coordinate t.
func interpolateBlock(a, b *lti.ModalBlock, t float64, rep *Report) (lti.ModalBlock, error) {
	match, worst, err := matchPoles(a.Poles, b.Poles, DefaultMaxPoleShift)
	if err != nil {
		return lti.ModalBlock{}, err
	}
	rep.MatchedPoles += len(match)
	if worst > rep.MaxPoleShift {
		rep.MaxPoleShift = worst
	}
	q, p := len(a.Poles), a.R.Cols
	poles := make([]complex128, q)
	r := dense.NewMat[complex128](q, p)
	ct := complex(t, 0)
	for k := 0; k < q; k++ {
		lam := (1-ct)*a.Poles[k] + ct*b.Poles[match[k]]
		if real(lam) > stabTol*(1+cmplx.Abs(lam)) {
			return lti.ModalBlock{}, fmt.Errorf("%w: interpolated pole %v is unstable", ErrAmbiguous, lam)
		}
		poles[k] = lam
		ra, rb := a.R.Row(k), b.R.Row(match[k])
		dst := r.Row(k)
		for c := range dst {
			dst[c] = (1-ct)*ra[c] + ct*rb[c]
		}
	}
	var d []complex128
	if a.D != nil {
		d = make([]complex128, p)
		for c := range d {
			d[c] = (1-ct)*a.D[c] + ct*b.D[c]
		}
	}
	return lti.ModalBlock{Input: a.Input, Modal: true, Sym: a.Sym && b.Sym, Poles: poles, R: r, D: d}, nil
}

// MaxRelTransferErr is the worst Frobenius-relative transfer-matrix error
// between two systems over the frequency grid — the metric every
// interpolation budget in this repo (serving admission, benchmarks, tests)
// is expressed in, kept in one place so they all measure the same quantity.
func MaxRelTransferErr(a, b *lti.ModalSystem, omegas []float64) (float64, error) {
	var worst float64
	for _, w := range omegas {
		s := complex(0, w)
		ha, err := a.Eval(s)
		if err != nil {
			return 0, err
		}
		hb, err := b.Eval(s)
		if err != nil {
			return 0, err
		}
		var num, den float64
		for i := range ha.Data {
			num += sqAbs(ha.Data[i] - hb.Data[i])
			den += sqAbs(hb.Data[i])
		}
		if den == 0 {
			den = 1
		}
		if e := math.Sqrt(num / den); e > worst {
			worst = e
		}
	}
	return worst, nil
}

// matchPoles pairs each pole of a with a distinct pole of b by globally
// greedy nearest-neighbor assignment: the closest unmatched pair is locked
// first, so a pole can never steal a partner that another pole is strictly
// closer to. Returns the permutation (match[i] is the index in b paired with
// a[i]) and the worst relative shift. Pairs farther apart than maxShift
// relative to their magnitude are ErrAmbiguous — the anchors are too far
// apart (or structurally unrelated) for a linear pole path.
func matchPoles(a, b []complex128, maxShift float64) ([]int, float64, error) {
	q := len(a)
	match := make([]int, q)
	usedA := make([]bool, q)
	usedB := make([]bool, q)
	var worst float64
	for n := 0; n < q; n++ {
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < q; i++ {
			if usedA[i] {
				continue
			}
			for j := 0; j < q; j++ {
				if usedB[j] {
					continue
				}
				if d := cmplx.Abs(a[i] - b[j]); d < best {
					bi, bj, best = i, j, d
				}
			}
		}
		mag := math.Max(cmplx.Abs(a[bi]), cmplx.Abs(b[bj]))
		if mag == 0 {
			mag = 1
		}
		shift := best / mag
		if shift > maxShift {
			return nil, 0, fmt.Errorf("%w: pole %v ↔ %v moved %.2f× its magnitude (guard %.2f)",
				ErrAmbiguous, a[bi], b[bj], shift, maxShift)
		}
		if shift > worst {
			worst = shift
		}
		match[bi] = bj
		usedA[bi], usedB[bj] = true, true
	}
	return match, worst, nil
}
