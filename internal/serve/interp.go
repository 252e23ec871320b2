package serve

import (
	"errors"
	"math"
	"sort"
	"time"

	"repro/internal/grid"
	"repro/internal/lti"
	"repro/internal/param"
	"repro/internal/sim"
)

// maxInterpModels bounds the resident interpolated-model cache.
// Interpolants are a few hundred kilobytes and rebuild in well under a
// millisecond, so the LRU can stay small even under continuum sweeps.
const maxInterpModels = 64

// interpTol is the serving error budget: the leave-one-out
// self-check error above which a Δ-scale request falls back to a real
// reduction. Within-plateau interpolation measures ~1e-3..1e-2 against
// direct reductions on the benchmark family; 0.05 accepts those while
// rejecting interpolation across a grid re-randomization boundary.
const interpTol = 0.05

// InterpInfo is the serving-layer record of how an interpolated model was
// assembled, surfaced in model JSON so a Δ-scale response is auditable.
type InterpInfo struct {
	// Scales are the two anchor scales, ascending; T the log-scale
	// interpolation coordinate between them.
	Scales [2]float64 `json:"scales"`
	T      float64    `json:"t"`
	// MatchedPoles and MaxPoleShift summarize the pole matching.
	MatchedPoles int     `json:"matched_poles"`
	MaxPoleShift float64 `json:"max_pole_shift"`
	// CheckScale is the held-out anchor the leave-one-out self-check
	// predicted, and CheckErr the worst relative transfer error of that
	// prediction (the budgeted quantity). CheckErr is -1 when only two
	// anchors exist and no self-check was possible.
	CheckScale float64 `json:"check_scale,omitempty"`
	CheckErr   float64 `json:"check_err"`
	// Tol is the budget this model was admitted under.
	Tol float64 `json:"tol"`
}

// interpEntry is one resident interpolated model; seq orders the LRU.
type interpEntry struct {
	model *Model
	seq   int64
}

// libScanMinInterval rate-limits on-demand store rescans triggered by
// Δ-scale requests that found no anchors.
const libScanMinInterval = time.Second

// RefreshLibrary scans the persistent store's metadata (no ROM decoding) and
// merges every valid model's Scale point into the anchor library, so
// Δ-scale interpolation can draw on stored-but-not-yet-resident ROMs.
func (r *Repository) RefreshLibrary() error {
	r.lastLibScan.Store(time.Now().UnixNano())
	if r.store == nil {
		return nil
	}
	metas, err := r.store.Scan()
	if err != nil {
		return err
	}
	for _, meta := range metas {
		key, ok := keyFromMeta(meta.ModelKey, meta.ID)
		if !ok {
			continue
		}
		r.libraryAddFromMeta(key, meta.GridKey)
	}
	return nil
}

// libraryAddFromMeta merges one store-scanned model into the anchor library.
// A stored ROM is only an anchor if its grid fingerprint matches the current
// generator: a stale file (e.g. written before an electrical recalibration)
// would miss on read-through and turn "load an anchor" into a full
// reduction.
func (r *Repository) libraryAddFromMeta(key ModelKey, gridKey string) {
	cfg, err := grid.Benchmark(key.Benchmark, key.Scale)
	if err != nil {
		return
	}
	cfg.RCOnly = key.RCOnly
	if cfg.Key() != gridKey {
		return
	}
	r.mu.Lock()
	r.libraryAdd(key)
	r.mu.Unlock()
}

// refreshLibraryIfStale rescans the store at most once per
// libScanMinInterval — the slow path behind a Δ-scale request whose
// benchmark family has no (or not enough) known anchors.
func (r *Repository) refreshLibraryIfStale() {
	if r.store == nil {
		return
	}
	last := r.lastLibScan.Load()
	if time.Since(time.Unix(0, last)) < libScanMinInterval {
		return
	}
	if !r.lastLibScan.CompareAndSwap(last, time.Now().UnixNano()) {
		return // another request is already rescanning
	}
	r.RefreshLibrary()
}

// ScalePoints lists the known anchor scales of key's benchmark family
// (ignoring key.Scale), ascending.
func (r *Repository) ScalePoints(key ModelKey) []float64 {
	key.Normalize()
	lk := key
	lk.Scale = 0
	r.mu.Lock()
	set := r.library[lk]
	out := make([]float64, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	r.mu.Unlock()
	sort.Float64s(out)
	return out
}

// GetInterpolated serves key at an arbitrary Scale: an exact-scale model
// (resident, stored, or previously interpolated) is returned as-is;
// otherwise the model is interpolated from the two stored anchors bracketing
// the scale, provided the pole matching is unambiguous and the leave-one-out
// self-check stays within tol (0 selects the repository default). Any
// obstacle — no bracketing anchors, incompatible ROM structure, ambiguous
// matching, budget exceeded — falls back to a real reduction via Get, so the
// caller always receives a servable model; the fallback is merely slower and
// is counted in RepoStats.InterpFallbacks.
func (r *Repository) GetInterpolated(key ModelKey, tol float64) (*Model, Outcome, error) {
	if err := key.Validate(); err != nil {
		return nil, OutcomeMemHit, err
	}
	key.Normalize()
	if tol <= 0 {
		tol = interpTol
	}

	// Resident exact-scale model (or in-flight build): serve it.
	r.mu.Lock()
	_, resident := r.entries[key]
	if !resident {
		// A cached interpolant only satisfies this request if it was
		// admitted under the caller's budget: a stricter per-request tol
		// than the cached CheckErr must re-decide (and typically reduce for
		// real) rather than serve an out-of-budget model. Unchecked
		// interpolants (CheckErr < 0, two-anchor libraries) serve at any
		// tol, matching construction-time semantics.
		if ie, ok := r.interp[key]; ok && ie.model.Interp.CheckErr <= tol {
			r.interpTouch(ie)
			m := ie.model
			r.mu.Unlock()
			r.interpServed.Add(1)
			return m, OutcomeInterp, nil
		}
	}
	r.mu.Unlock()
	if resident {
		return r.Get(key)
	}

	// Stored exact-scale ROM: read it through (a disk hit, no reduction).
	// Errors — including a full repository — flow on to the interpolation
	// branch: an interpolant needs no repository slot (it lives in the
	// separate bounded LRU), so a full repo with resident anchors can still
	// serve Δ-scale traffic; only the final fallback reduction can surface
	// ErrRepositoryFull.
	m, outcome, err := r.get(key, false)
	if err == nil {
		return m, outcome, nil
	}

	// Interpolate between stored anchors; any failure reduces for real.
	scales := r.ScalePoints(key)
	lo, hi, ok := bracket(scales, key.Scale)
	if !ok {
		r.refreshLibraryIfStale()
		scales = r.ScalePoints(key)
		if lo, hi, ok = bracket(scales, key.Scale); !ok {
			return r.interpFallback(key)
		}
	}
	m, err = r.interpolate(key, scales, lo, hi, tol)
	if err != nil {
		return r.interpFallback(key)
	}
	r.interpServed.Add(1)
	return m, OutcomeInterp, nil
}

// interpFallback counts a Δ-scale miss and reduces the model for real.
func (r *Repository) interpFallback(key ModelKey) (*Model, Outcome, error) {
	r.interpFallbacks.Add(1)
	return r.Get(key)
}

// bracket finds the neighboring anchor indices with scales[lo] < s <
// scales[hi]. Exact anchor scales are handled by the read-through above and
// do not reach here under normal operation; if one does (e.g. the stored
// file vanished), it brackets against its neighbors like any other scale.
func bracket(scales []float64, s float64) (lo, hi int, ok bool) {
	hi = sort.SearchFloat64s(scales, s)
	if hi <= 0 || hi >= len(scales) {
		return 0, 0, false
	}
	return hi - 1, hi, true
}

// interpolate assembles the model at key.Scale from the bracketing anchors
// scales[lo], scales[hi], self-checking against a held-out third anchor when
// one exists.
func (r *Repository) interpolate(key ModelKey, scales []float64, lo, hi int, tol float64) (*Model, error) {
	a, err := r.anchor(key, scales[lo])
	if err != nil {
		return nil, err
	}
	b, err := r.anchor(key, scales[hi])
	if err != nil {
		return nil, err
	}

	info := InterpInfo{CheckErr: -1, Tol: tol}
	// Leave-one-out self-check: predict a held-out anchor from a wider pair
	// and measure the worst relative transfer error against its stored ROM —
	// an upper-bound proxy for the served interpolant's error (the held-out
	// span is strictly wider) that costs zero reductions. Both outer-anchor
	// candidates are tried, narrower span first: a single far-away (or
	// structurally incompatible) anchor elsewhere in the library must not
	// defeat interpolation between two perfectly good bracketing anchors.
	type looCandidate struct {
		outerScale float64 // third anchor completing the wider pair
		outerWith  *Model  // bracket anchor kept in the pair
		heldOut    *Model  // bracket anchor being predicted
	}
	var cands []looCandidate
	if hi+1 < len(scales) {
		cands = append(cands, looCandidate{scales[hi+1], a, b})
	}
	if lo > 0 {
		cands = append(cands, looCandidate{scales[lo-1], b, a})
	}
	if len(cands) == 2 {
		upSpan := math.Log(scales[hi+1] / scales[lo])
		downSpan := math.Log(scales[hi] / scales[lo-1])
		if downSpan < upSpan {
			cands[0], cands[1] = cands[1], cands[0]
		}
	}
	var checkErr error
	for _, c := range cands {
		outer, err := r.anchor(key, c.outerScale)
		if err != nil {
			checkErr = err
			continue
		}
		pred, _, err := param.Interpolate(
			param.Anchor{Scale: outer.Key.Scale, Modal: outer.Modal},
			param.Anchor{Scale: c.outerWith.Key.Scale, Modal: c.outerWith.Modal},
			c.heldOut.Key.Scale)
		if err != nil {
			checkErr = err
			continue
		}
		e, err := relTransferErr(pred, c.heldOut.Modal)
		if err != nil {
			checkErr = err
			continue
		}
		if info.CheckErr < 0 || e < info.CheckErr {
			info.CheckScale, info.CheckErr = c.heldOut.Key.Scale, e
		}
		if e <= tol {
			break // this check admits the bracket; no need to try the wider one
		}
		checkErr = errBudgetExceeded
	}
	if info.CheckErr >= 0 && info.CheckErr > tol {
		return nil, errBudgetExceeded
	}
	if info.CheckErr < 0 && checkErr != nil {
		// Candidates existed but none produced a usable check: treat as
		// ambiguous rather than serving unchecked.
		return nil, checkErr
	}

	t0 := time.Now()
	ms, rep, err := param.Interpolate(
		param.Anchor{Scale: a.Key.Scale, Modal: a.Modal},
		param.Anchor{Scale: b.Key.Scale, Modal: b.Modal},
		key.Scale)
	if err != nil {
		return nil, err
	}
	info.Scales, info.T = rep.Scales, rep.T
	info.MatchedPoles, info.MaxPoleShift = rep.MatchedPoles, rep.MaxPoleShift

	cfg, err := grid.Benchmark(key.Benchmark, key.Scale)
	if err != nil {
		return nil, err
	}
	cfg.RCOnly = key.RCOnly
	interpTime := time.Since(t0)
	m := newModel(key, ms, cfg.Key(), cfg.NumNodes())
	m.ReduceTime = interpTime
	m.Created = time.Now()
	m.Interp = &info
	r.interpInsert(key, m)
	return m, nil
}

// errBudgetExceeded marks a leave-one-out check above the serving budget.
var errBudgetExceeded = errors.New("serve: interpolation error budget exceeded")

// anchor loads one library anchor — resident or stored, never built: a
// request on the interpolation path must cost zero reductions until it
// explicitly falls back (where exactly one reduction, of the requested
// model, is paid). A library entry whose backing file vanished or went
// stale simply fails the load, and insists on full modal coverage — the
// representation interpolation operates on.
func (r *Repository) anchor(key ModelKey, scale float64) (*Model, error) {
	key.Scale = scale
	m, _, err := r.get(key, false)
	if err != nil {
		return nil, err
	}
	if m.Modal == nil || m.ModalBlocks != m.Blocks {
		return nil, errors.New("serve: anchor lacks full modal coverage")
	}
	return m, nil
}

// interpCheckPoints sizes the leave-one-out probe grid. Modal evaluation is
// O(order·ports) per point, so the whole check costs microseconds.
const interpCheckPoints = 15

// interpCheckOmegas is the standard-band probe grid shared by every
// leave-one-out check.
var interpCheckOmegas = func() []float64 {
	omegas, err := sim.LogGrid(DefaultWMin, DefaultWMax, interpCheckPoints)
	if err != nil {
		panic(err) // constants: cannot fail
	}
	return omegas
}()

// relTransferErr measures two modal systems against each other over the
// standard sweep band, in the repo-wide budget metric.
func relTransferErr(a, b *lti.ModalSystem) (float64, error) {
	return param.MaxRelTransferErr(a, b, interpCheckOmegas)
}

// interpTouch bumps an entry to the LRU head. Caller holds mu.
func (r *Repository) interpTouch(e *interpEntry) {
	r.interpSeq++
	e.seq = r.interpSeq
}

// interpInsert caches an interpolated model, evicting the least recently
// used entry beyond the bound. An existing entry for the same key is kept
// unless the new model carries a strictly better self-check (a stricter-tol
// request may have forced a narrower-span check).
func (r *Repository) interpInsert(key ModelKey, m *Model) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[key]; ok {
		// A real model for this key became resident (or is building) while
		// this interpolant was assembled: the real one wins, and caching the
		// interpolant would double-list the ID and pin a shadowed LRU slot.
		return
	}
	if e, ok := r.interp[key]; ok {
		if m.Interp.CheckErr >= 0 && (e.model.Interp.CheckErr < 0 || m.Interp.CheckErr < e.model.Interp.CheckErr) {
			e.model = m
		}
		r.interpTouch(e)
		return
	}
	e := &interpEntry{model: m}
	r.interpTouch(e)
	r.interp[key] = e
	r.interpByID[key.ID()] = e
	for len(r.interp) > r.maxInterp {
		var victimKey ModelKey
		var victim *interpEntry
		for k, cand := range r.interp {
			if victim == nil || cand.seq < victim.seq {
				victimKey, victim = k, cand
			}
		}
		delete(r.interp, victimKey)
		delete(r.interpByID, victimKey.ID())
	}
}
