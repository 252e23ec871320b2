package lti

import (
	"fmt"
	"math"
	"math/cmplx"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/dense"
)

// Modal-form construction tolerances. They are variables (not constants) so
// tests can tighten or loosen the acceptance band.
var (
	// modalSymTol is the relative asymmetry below which a block's C and G
	// are treated as symmetric, routing it through the exact generalized
	// symmetric eigendecomposition.
	modalSymTol = 1e-12
	// modalCheckTol is the per-block self-check bound: a diagonalized block
	// whose transfer column deviates from its LU evaluation by more than
	// this relative error at any probe frequency is demoted to the LU
	// fallback. Two orders of magnitude tighter than the 1e-9 the system
	// guarantees end to end.
	modalCheckTol = 1e-11
	// modalDropTol classifies eigenvalues of K = (s₀C−G)⁻¹C as "mode at
	// infinity" (relative to the largest |μ|): those directions carry no
	// dynamics and fold into the block's direct term.
	modalDropTol = 1e-14
	// modalStabTol rejects decompositions that manufacture unstable poles:
	// a passive grid block has Re λ ≤ 0, so a pole with significant
	// positive real part signals a bad diagonalization (and would detonate
	// the exact exponential integrator).
	modalStabTol = 1e-8
)

// ModalBlock is the diagonalized (pole–residue) form of one ROM block: the
// block's transfer column is
//
//	Hᵢ(s) = Σₖ Rₖ / (s − λₖ) + D
//
// with residue rows Rₖ = (Lᵢ·xₖ)·(input weight of mode k) already folded, so
// an evaluation is q divisions and a q×p accumulation — no factorization, no
// solves, no allocation. Poles come from the generalized eigenproblem
// Gᵢ·v = λ·Cᵢ·v (symmetric path) or from diagonalizing (s₀Cᵢ−Gᵢ)⁻¹Cᵢ
// (general path, covering the non-symmetric RLC pencils).
type ModalBlock struct {
	// Input is the index of the input port driving this block.
	Input int
	// Modal reports the block carries a usable pole–residue form; false
	// means evaluation must fall back to the per-frequency LU of the
	// source Block.
	Modal bool
	// Sym reports the symmetric generalized eigenproblem produced this
	// form (real poles, congruence-exact); false means the general
	// diagonalization path did.
	Sym bool
	// Poles holds the q' finite pole locations λₖ.
	Poles []complex128
	// R is q'×p: row k is the output residue vector of pole k.
	R *dense.Mat[complex128]
	// D is the direct (frequency-independent) term, length p; nil when the
	// block has no feedthrough (always, when Cᵢ is nonsingular).
	D []complex128
}

// ModalSystem is a BlockDiagSystem together with the per-block modal forms —
// the "diagonalize once, evaluate in O(q)" fast path. Blocks whose pencils
// defeat the diagonalization (or fail its accuracy self-check) keep Modal ==
// false and evaluate through a fresh LU, so a ModalSystem is always exactly
// as accurate as its source system, merely faster where structure allows.
// A ModalSystem is immutable after construction and safe for concurrent use.
type ModalSystem struct {
	// BD is the source system (used for fallback evaluation and dims).
	BD *BlockDiagSystem
	// Blocks parallels BD.Blocks.
	Blocks []ModalBlock
}

// Dims returns (Σ block orders, M, P) of the source system.
func (ms *ModalSystem) Dims() (n, m, p int) { return ms.BD.Dims() }

// ModalCount returns how many blocks carry a modal form and how many fall
// back to per-frequency LU.
func (ms *ModalSystem) ModalCount() (modal, fallback int) {
	for i := range ms.Blocks {
		if ms.Blocks[i].Modal {
			modal++
		} else {
			fallback++
		}
	}
	return modal, fallback
}

// Validate checks internal consistency of the modal data against the source
// system — the decode-time guard for persisted modal forms.
func (ms *ModalSystem) Validate() error {
	if ms.BD == nil {
		return fmt.Errorf("lti: modal system has no source system")
	}
	if err := ms.BD.Validate(); err != nil {
		return err
	}
	if len(ms.Blocks) != len(ms.BD.Blocks) {
		return fmt.Errorf("lti: %d modal blocks for %d source blocks", len(ms.Blocks), len(ms.BD.Blocks))
	}
	for i := range ms.Blocks {
		mb := &ms.Blocks[i]
		if mb.Input != ms.BD.Blocks[i].Input {
			return fmt.Errorf("lti: modal block %d input %d disagrees with source input %d", i, mb.Input, ms.BD.Blocks[i].Input)
		}
		if !mb.Modal {
			if len(mb.Poles) != 0 || mb.R != nil || mb.D != nil {
				return fmt.Errorf("lti: fallback modal block %d carries modal data", i)
			}
			continue
		}
		if mb.R == nil || mb.R.Rows != len(mb.Poles) || mb.R.Cols != ms.BD.P {
			return fmt.Errorf("lti: modal block %d residue matrix inconsistent", i)
		}
		if mb.D != nil && len(mb.D) != ms.BD.P {
			return fmt.Errorf("lti: modal block %d direct term has length %d, want %d", i, len(mb.D), ms.BD.P)
		}
	}
	return nil
}

// Modalize diagonalizes every block pencil once, producing the ModalSystem
// fast path. Symmetric-definite blocks (RC-grid projections) go through the
// exact generalized symmetric eigendecomposition; other blocks through a
// general diagonalization of (s₀C−G)⁻¹C whose result must survive an
// accuracy self-check against the block's own LU evaluation. Blocks that
// fail either route are kept as LU fallbacks — Modalize degrades per block,
// never fails the whole system, so the only error is an invalid source.
//
// The blocks are independent, so min(GOMAXPROCS, blocks) goroutines take
// them by an atomic next index, each writing only the modal blocks it took.
// Every block's arithmetic is the serial one, so the result does not depend
// on the core count. A panic in a block is raised again on the caller's
// goroutine once every worker has stopped.
func (bd *BlockDiagSystem) Modalize() (*ModalSystem, error) {
	if err := bd.Validate(); err != nil {
		return nil, err
	}
	ms := &ModalSystem{BD: bd, Blocks: make([]ModalBlock, len(bd.Blocks))}
	var next atomic.Int64
	var wg sync.WaitGroup
	panics := make([]any, min(runtime.GOMAXPROCS(0), len(bd.Blocks)))
	for w := range panics {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { panics[w] = recover() }()
			for i := int(next.Add(1)) - 1; i < len(bd.Blocks); i = int(next.Add(1)) - 1 {
				ms.Blocks[i] = modalizeBlock(&bd.Blocks[i], bd.P)
			}
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	return ms, nil
}

// modalizeBlock attempts the symmetric then the general diagonalization,
// self-checking each candidate; any failure degrades to the LU fallback.
func modalizeBlock(b *Block, p int) ModalBlock {
	fallback := ModalBlock{Input: b.Input}
	if symmetricWithin(b.C, modalSymTol) && symmetricWithin(b.G, modalSymTol) {
		if mb, ok := modalizeSym(b, p); ok && selfCheck(b, &mb) {
			return mb
		}
	}
	if mb, ok := modalizeGeneral(b, p); ok {
		return mb
	}
	return fallback
}

// symmetricWithin reports max |A−Aᵀ| ≤ tol·max|A|.
func symmetricWithin(a *dense.Mat[float64], tol float64) bool {
	if a.Rows != a.Cols {
		return false
	}
	bound := tol * (1 + a.MaxAbs())
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < i; j++ {
			if math.Abs(a.At(i, j)-a.At(j, i)) > bound {
				return false
			}
		}
	}
	return true
}

// modalizeSym handles the symmetric-definite case: G·v = λ·C·v with C SPD
// yields real poles λₖ and a C-orthonormal basis V (VᵀCV = I, VᵀGV = Λ), so
// (sC−G)⁻¹ = V·diag(1/(s−λₖ))·Vᵀ exactly. Residue row k is (L·vₖ)·(vₖᵀb).
func modalizeSym(b *Block, p int) (ModalBlock, bool) {
	vals, vecs, err := dense.EigSymGen(b.G, b.C)
	if err != nil {
		return ModalBlock{}, false
	}
	q := len(vals)
	r := dense.NewMat[complex128](q, p)
	keep := 0
	poles := make([]complex128, 0, q)
	for k := 0; k < q; k++ {
		// Input weight vₖᵀ·b folds straight into the residue row.
		var w float64
		for i := 0; i < q; i++ {
			w += vecs.At(i, k) * b.B[i]
		}
		if w == 0 {
			continue // uncontrollable mode: contributes nothing
		}
		for rr := 0; rr < p; rr++ {
			var lv float64
			for i := 0; i < q; i++ {
				lv += b.L.At(rr, i) * vecs.At(i, k)
			}
			r.Set(keep, rr, complex(lv*w, 0))
		}
		poles = append(poles, complex(vals[k], 0))
		keep++
	}
	return ModalBlock{
		Input: b.Input, Modal: true, Sym: true,
		Poles: poles, R: shrinkRows(r, keep),
	}, true
}

// modalShifts are the expansion points tried by the general path; the first
// invertible pencil wins. DefaultS0-adjacent first: the blocks came from a
// Krylov projection around 1e9 rad/s, where the pencil is provably regular.
var modalShifts = []float64{1e9, 1e6, 1e12, 1, 1e3}

// modalizeGeneral diagonalizes K = (s₀C−G)⁻¹C = X·diag(μ)·X⁻¹. Writing
// sC−G = (s₀C−G)·(I−(s₀−s)K) gives, per eigenvalue μₖ:
//
//	μₖ ≠ 0: a finite pole λₖ = s₀ − 1/μₖ with residue (L·xₖ)·(gₖ/μₖ)
//	μₖ ≈ 0: a mode at infinity — a frequency-independent direct term
//
// where g = X⁻¹(s₀C−G)⁻¹b. This works for singular C (the RLC pencils with
// inductor branch rows) where C⁻¹G does not exist. The result is only a
// candidate: non-symmetric eigenvector bases can be ill-conditioned, so the
// caller must self-check it against the LU evaluation before trusting it.
func modalizeGeneral(b *Block, p int) (ModalBlock, bool) {
	for _, s0 := range modalShifts {
		pencil := b.C.Clone().Scale(s0).Sub(b.G)
		lu, err := dense.FactorLU(pencil)
		if err != nil {
			continue
		}
		// Self-check inside the shift loop: an eigenbasis ill-conditioned at
		// one expansion point may be fine at the next, and a single demoted
		// block would push the whole model off the modal fast path.
		if mb, ok := modalizeGeneralAt(b, p, s0, lu); ok && selfCheck(b, &mb) {
			return mb, true
		}
	}
	return ModalBlock{}, false
}

func modalizeGeneralAt(b *Block, px int, s0 float64, lu *dense.LU[float64]) (ModalBlock, bool) {
	q := b.Order()
	k, err := lu.SolveMat(b.C)
	if err != nil {
		return ModalBlock{}, false
	}
	mus, x, err := dense.Eig(k)
	if err != nil {
		return ModalBlock{}, false
	}
	// g = X⁻¹·(s₀C−G)⁻¹·b.
	y := make([]float64, q)
	if err := lu.Solve(y, b.B); err != nil {
		return ModalBlock{}, false
	}
	xlu, err := dense.FactorLU(x)
	if err != nil {
		return ModalBlock{}, false // defective (non-diagonalizable) pencil
	}
	g := make([]complex128, q)
	for i, v := range y {
		g[i] = complex(v, 0)
	}
	if err := xlu.Solve(g, g); err != nil {
		return ModalBlock{}, false
	}
	var muMax float64
	for _, mu := range mus {
		if a := cmplx.Abs(mu); a > muMax {
			muMax = a
		}
	}
	lx := dense.ToComplex(b.L).Mul(x) // p×q: column k is L·xₖ
	r := dense.NewMat[complex128](q, px)
	poles := make([]complex128, 0, q)
	var d []complex128
	keep := 0
	for kk := 0; kk < q; kk++ {
		if g[kk] == 0 {
			continue
		}
		if cmplx.Abs(mus[kk]) <= modalDropTol*muMax || mus[kk] == 0 {
			// Mode at infinity: constant contribution (L·xₖ)·gₖ.
			if d == nil {
				d = make([]complex128, px)
			}
			for rr := 0; rr < px; rr++ {
				d[rr] += lx.At(rr, kk) * g[kk]
			}
			continue
		}
		lambda := complex(s0, 0) - 1/mus[kk]
		if real(lambda) > modalStabTol*(1+cmplx.Abs(lambda)) {
			return ModalBlock{}, false // spurious unstable pole
		}
		w := g[kk] / mus[kk]
		for rr := 0; rr < px; rr++ {
			r.Set(keep, rr, lx.At(rr, kk)*w)
		}
		poles = append(poles, lambda)
		keep++
	}
	return ModalBlock{
		Input: b.Input, Modal: true,
		Poles: poles, R: shrinkRows(r, keep), D: d,
	}, true
}

// shrinkRows returns the first keep rows of r as a tight matrix.
func shrinkRows(r *dense.Mat[complex128], keep int) *dense.Mat[complex128] {
	return &dense.Mat[complex128]{Rows: keep, Cols: r.Cols, Data: r.Data[:keep*r.Cols]}
}

// selfCheck compares the candidate modal column against the block's LU
// evaluation at probe frequencies spread around the block's own pole
// magnitudes (plus the serving sweep range). A block whose relative error
// exceeds modalCheckTol anywhere — or that cannot be compared at any probe
// at all — is rejected: correctness beats speed, and an unverifiable
// candidate is an unaccepted one. The probes share one blockLU: C, G and L
// are converted, and the buffers made, once per check rather than per probe.
func selfCheck(b *Block, mb *ModalBlock) bool {
	p := mb.R.Cols
	probes := probeFrequencies(mb.Poles)
	modal := make([]complex128, p)
	lu := newBlockLU(b)
	compared := 0
	for _, s := range probes {
		ref, err := lu.column(s)
		if err != nil {
			continue // the pencil is singular at this probe; skip it
		}
		for r := range modal {
			modal[r] = 0
		}
		mb.accumulateColumn(modal, s)
		var num, den float64
		for r := range ref {
			num += sqAbs(modal[r] - ref[r])
			den += sqAbs(ref[r])
		}
		if den == 0 {
			den = 1
		}
		if math.Sqrt(num) > modalCheckTol*math.Sqrt(den)+1e-300 {
			return false
		}
		compared++
	}
	return compared > 0
}

func sqAbs(z complex128) float64 { return real(z)*real(z) + imag(z)*imag(z) }

// probeFrequencies returns jω probes log-spaced over both the serving sweep
// range and the block's own pole magnitudes, so self-checks exercise the
// frequencies where the block's response actually lives.
func probeFrequencies(poles []complex128) []complex128 {
	lo, hi := 1e5, 1e15
	for _, lam := range poles {
		if a := cmplx.Abs(lam); a > 0 {
			if a/10 < lo {
				lo = a / 10
			}
			if a*10 > hi {
				hi = a * 10
			}
		}
	}
	const n = 7
	probes := make([]complex128, 0, n)
	llo, lhi := math.Log10(lo), math.Log10(hi)
	for i := 0; i < n; i++ {
		w := math.Pow(10, llo+(lhi-llo)*float64(i)/float64(n-1))
		probes = append(probes, complex(0, w))
	}
	return probes
}

// accumulateColumn adds this block's transfer column at s into dst
// (length p): dst += Σₖ Rₖ/(s−λₖ) + D. Zero allocations, O(q'·p) flops.
//
//pgmor:noalloc
func (mb *ModalBlock) accumulateColumn(dst []complex128, s complex128) {
	for k, lam := range mb.Poles {
		c := 1 / (s - lam)
		row := mb.R.Row(k)
		for r := range dst {
			dst[r] += c * row[r]
		}
	}
	for r, dv := range mb.D {
		dst[r] += dv
	}
}

// EvalColumnInto computes column j of H(s) into dst (length P), using the
// modal form for modal blocks and a fresh LU for fallback blocks. With all
// blocks modal the call performs zero allocations and takes zero locks.
//
//pgmor:noalloc
func (ms *ModalSystem) EvalColumnInto(dst []complex128, s complex128, j int) error {
	if j < 0 || j >= ms.BD.M {
		return fmt.Errorf("lti: column %d out of range %d", j, ms.BD.M)
	}
	if len(dst) != ms.BD.P {
		return fmt.Errorf("lti: modal EvalColumnInto dst length %d, want %d", len(dst), ms.BD.P)
	}
	for r := range dst {
		dst[r] = 0
	}
	for i := range ms.Blocks {
		mb := &ms.Blocks[i]
		if mb.Input != j {
			continue
		}
		if mb.Modal {
			mb.accumulateColumn(dst, s)
			continue
		}
		//pgmor:alloc non-modal blocks fall back to a one-shot LU; cold by construction
		if err := ms.fallbackColumn(dst, i, s); err != nil {
			return err
		}
	}
	return nil
}

// fallbackColumn adds block i's column at s into dst through a one-shot LU,
// the path for blocks the diagonalization could not cover.
func (ms *ModalSystem) fallbackColumn(dst []complex128, i int, s complex128) error {
	col, err := blockColumn(&ms.BD.Blocks[i], s)
	if err != nil {
		return fmt.Errorf("lti: modal fallback block %d: %w", i, err)
	}
	for r := range dst {
		dst[r] += col[r]
	}
	return nil
}

// EvalColumn computes column j of H(s).
func (ms *ModalSystem) EvalColumn(s complex128, j int) ([]complex128, error) {
	dst := make([]complex128, ms.BD.P)
	if err := ms.EvalColumnInto(dst, s, j); err != nil {
		return nil, err
	}
	return dst, nil
}

// Eval computes the full p×m transfer matrix H(s) from the modal forms.
// The result matrix and one column of scratch are the only allocations; the
// per-block accumulation loop itself must stay allocation-free.
//
//pgmor:noalloc
func (ms *ModalSystem) Eval(s complex128) (*dense.Mat[complex128], error) {
	h := dense.NewMat[complex128](ms.BD.P, ms.BD.M) //pgmor:alloc the result matrix is the caller's to keep
	col := make([]complex128, ms.BD.P)              //pgmor:alloc one column of scratch per call, O(P)
	for i := range ms.Blocks {
		mb := &ms.Blocks[i]
		for r := range col {
			col[r] = 0
		}
		if mb.Modal {
			mb.accumulateColumn(col, s)
			//pgmor:alloc non-modal blocks fall back to a one-shot LU; cold by construction
		} else if err := ms.fallbackColumn(col, i, s); err != nil {
			return nil, err
		}
		j := mb.Input
		for r := 0; r < h.Rows; r++ {
			h.Set(r, j, h.At(r, j)+col[r])
		}
	}
	return h, nil
}

// SweepEntryInto evaluates H[row][col](jωₖ) for every ωₖ into dst — the
// vectorized residue pass that replaces per-frequency factorization: each
// pole contributes to all frequencies in one inner loop, O(q'·len(omegas))
// total, with fallback blocks paying one LU per frequency.
//
//pgmor:noalloc
func (ms *ModalSystem) SweepEntryInto(dst []complex128, row, col int, omegas []float64) error {
	if row < 0 || row >= ms.BD.P || col < 0 || col >= ms.BD.M {
		return fmt.Errorf("lti: entry (%d,%d) out of range %d×%d", row, col, ms.BD.P, ms.BD.M)
	}
	if len(dst) != len(omegas) {
		return fmt.Errorf("lti: modal sweep dst length %d, want %d", len(dst), len(omegas))
	}
	for k := range dst {
		dst[k] = 0
	}
	var scratch []complex128 // lazily sized; only fallback blocks need it
	for i := range ms.Blocks {
		mb := &ms.Blocks[i]
		if mb.Input != col {
			continue
		}
		if mb.Modal {
			for k := range mb.Poles {
				lam := mb.Poles[k]
				r := mb.R.At(k, row)
				for w, omega := range omegas {
					dst[w] += r / (complex(0, omega) - lam)
				}
			}
			if mb.D != nil {
				dv := mb.D[row]
				for w := range dst {
					dst[w] += dv
				}
			}
			continue
		}
		if scratch == nil {
			scratch = make([]complex128, ms.BD.P) //pgmor:alloc lazy fallback scratch; never taken on fully-modal systems
		}
		for w, omega := range omegas {
			for r := range scratch {
				scratch[r] = 0
			}
			//pgmor:alloc non-modal blocks fall back to one LU per frequency; cold by construction
			if err := ms.fallbackColumn(scratch, i, complex(0, omega)); err != nil {
				return err
			}
			dst[w] += scratch[row]
		}
	}
	return nil
}
