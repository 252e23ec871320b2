package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/krylov"
	"repro/internal/lti"
	"repro/internal/obs"
	"repro/internal/store"
)

// ErrRepositoryFull is returned by Repository.Get when admitting another
// model would exceed the configured bound. Built ROMs are retained for the
// process lifetime, so an unbounded repository would let arbitrary request
// traffic grow memory without limit.
var ErrRepositoryFull = errors.New("serve: model repository is full")

// DefaultMaxModels bounds the repository when no explicit limit is given.
const DefaultMaxModels = 64

// maxConcurrentBuilds caps simultaneous grid builds + reductions; each build
// already parallelizes internally across cores, and a reduction is the most
// expensive operation a request can trigger.
const maxConcurrentBuilds = 2

// ModelKey identifies one reduced model in the repository: a Table II
// benchmark analogue at a geometric scale, reduced with the given BDSM
// parameters. Zero Moments/S0 select the paper's defaults for the benchmark
// (grid.MatchedMoments, core.DefaultS0), so requests that spell the defaults
// out and requests that omit them share one entry.
type ModelKey struct {
	Benchmark string  `json:"benchmark"`
	Scale     float64 `json:"scale"`
	Moments   int     `json:"moments,omitempty"`
	S0        float64 `json:"s0,omitempty"`
	RCOnly    bool    `json:"rc_only,omitempty"`
}

// MaxMoments bounds the per-column moment count a request may ask for. The
// paper never uses more than 10; 64 leaves generous headroom while keeping
// a hostile request from demanding an enormous reduction.
const MaxMoments = 64

// Normalize resolves defaulted fields to their effective values.
func (k *ModelKey) Normalize() {
	if k.Moments == 0 {
		k.Moments = grid.MatchedMoments(k.Benchmark)
	}
	opts := core.Options{S0: k.S0, Moments: k.Moments}
	opts.Normalize()
	k.S0 = opts.S0
}

// Validate rejects parameter values that would silently build a degenerate
// or abusive model (negative moment counts reduce to order-1 blocks;
// non-positive expansion points have no meaning for this scheme). Benchmark
// name and scale are validated by grid.Benchmark at build time.
func (k *ModelKey) Validate() error {
	if k.Moments < 0 || k.Moments > MaxMoments {
		return fmt.Errorf("serve: moments must be in [0, %d] (0 = benchmark default), got %d", MaxMoments, k.Moments)
	}
	if k.S0 < 0 {
		return fmt.Errorf("serve: s0 must be ≥ 0 (0 = default %g), got %g", core.DefaultS0, k.S0)
	}
	return nil
}

// idEscaper makes the benchmark field of an ID self-delimiting. The raw
// encoding "%s-%g-…" was ambiguous: a hostile benchmark name containing '-'
// and digit runs (e.g. "ckt1-0.25") could collide with a different key's
// encoding. Escaping '-' (the field separator), '+' (stripped below), and
// '%' (the escape head) leaves the first bare '-' as an unambiguous field
// boundary, and the remaining fields are delimited by the literals "-l",
// "-s0", "-rc", whose letters never occur in %g/%d output — so the encoding
// is injective over all key values.
//
// Store-key compatibility: the standard benchmarks (ckt1..ckt5) contain none
// of the escaped characters, so their IDs — and therefore their persistent
// store addresses — are byte-identical to the previous encoding. Only keys
// with exotic benchmark names (which grid.Benchmark refuses to build anyway)
// change encoding.
var idEscaper = strings.NewReplacer("%", "%25", "-", "%2D", "+", "%2B")

// ID returns the stable, URL-safe identifier of the normalized key. Distinct
// normalized keys always produce distinct IDs.
func (k ModelKey) ID() string {
	k.Normalize()
	id := fmt.Sprintf("%s-%g-l%d-s0%g", idEscaper.Replace(k.Benchmark), k.Scale, k.Moments, k.S0)
	if k.RCOnly {
		id += "-rc"
	}
	// %g renders 1e9 as "1e+09"; '+' is not query-string safe. After
	// escaping, every remaining '+' is a %g exponent sign, whose removal
	// cannot merge two distinct renderings.
	return strings.ReplaceAll(id, "+", "")
}

// Model is an immutable, share-everything handle to a reduced model. The ROM
// and all metadata are read-only after construction, so one Model serves any
// number of concurrent requests without locking.
type Model struct {
	ID  string   `json:"id"`
	Key ModelKey `json:"key"`

	// Nodes, Ports, Outputs are the dimensions of the unreduced grid model.
	Nodes   int `json:"nodes"`
	Ports   int `json:"ports"`
	Outputs int `json:"outputs"`
	// Order and Blocks describe the block-diagonal ROM.
	Order  int `json:"order"`
	Blocks int `json:"blocks"`

	BuildTime  time.Duration `json:"build_ns"`
	ReduceTime time.Duration `json:"reduce_ns"`
	Created    time.Time     `json:"created"`

	// ModalBlocks counts the ROM blocks carrying a pole–residue (modal)
	// form — the blocks every evaluation serves without factorization. The
	// remaining Blocks − ModalBlocks fall back to LU pencils.
	ModalBlocks int `json:"modal_blocks"`

	// WardEliminated counts the static states the Ward/Schur pre-reduction
	// removed exactly before the Krylov projection ran. Zero for RC-only
	// grids (no eliminable states), for builds with the stage disabled, and
	// for models loaded from a store written before the field existed.
	WardEliminated int `json:"ward_eliminated,omitempty"`

	// FromStore reports that this process loaded the ROM from the persistent
	// store instead of reducing it (BuildTime/ReduceTime then record what the
	// original reduction cost, Created when it ran).
	FromStore bool `json:"from_store,omitempty"`

	// Interp describes how this model was interpolated from stored library
	// anchors instead of reduced; nil for reduced or stored models.
	// ReduceTime then records the interpolation cost.
	Interp *InterpInfo `json:"interp,omitempty"`

	// ROM is the block-diagonal reduced model (immutable): always Modal.BD.
	ROM *lti.BlockDiagSystem `json:"-"`
	// Modal is the diagonalize-once form of ROM that every evaluation runs
	// through; never nil. Blocks that failed to diagonalize keep Modal ==
	// false and are evaluated inline from ROM.
	Modal *lti.ModalSystem `json:"-"`
	// Packed is the structure-of-arrays form of Modal, built once alongside
	// it and used by the batched sweep kernel; never nil.
	Packed *lti.ModalPacked `json:"-"`
	// GridKey fingerprints the generated grid configuration.
	GridKey string `json:"-"`

	// idJSON is ID encoded once by encoding/json, HTML escaping included,
	// for the numeric response appenders (encode.go).
	idJSON []byte
}

// Outcome classifies how a Repository.Get call obtained its model. It is
// meaningful only when the accompanying error is nil.
type Outcome int

const (
	// OutcomeMemHit: the model was already resident (or this call waited on
	// another caller's in-flight build).
	OutcomeMemHit Outcome = iota
	// OutcomeDiskHit: this call loaded the ROM from the persistent store,
	// skipping the grid build and reduction entirely.
	OutcomeDiskHit
	// OutcomeBuilt: this call paid the full grid build + BDSM reduction.
	OutcomeBuilt
	// OutcomeInterp: this call assembled the model by interpolating stored
	// library anchors — no grid build, no reduction.
	OutcomeInterp
)

func (o Outcome) String() string {
	switch o {
	case OutcomeMemHit:
		return "memory"
	case OutcomeDiskHit:
		return "disk"
	case OutcomeBuilt:
		return "built"
	case OutcomeInterp:
		return "interp"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// RepoStats is a point-in-time snapshot of repository activity. Builds
// counts full reductions; DiskHits counts models served from the persistent
// store instead — the warm-restart economy, made observable.
type RepoStats struct {
	Models      int   `json:"models"`
	Builds      int64 `json:"builds"`
	MemHits     int64 `json:"mem_hits"`
	DiskHits    int64 `json:"disk_hits"`
	DiskMisses  int64 `json:"disk_misses"`
	StoreErrors int64 `json:"store_errors"`
	// InterpModels counts interpolated models currently resident;
	// InterpServed counts requests served through interpolation (zero
	// reductions each); InterpFallbacks counts Δ-scale requests that fell
	// back to a real reduction (no anchors, incompatible structure,
	// ambiguous matching, or error budget exceeded).
	InterpModels    int   `json:"interp_models"`
	InterpServed    int64 `json:"interp_served"`
	InterpFallbacks int64 `json:"interp_fallbacks"`
	// WardEliminatedStates sums the static states the Ward/Schur
	// pre-reduction stage removed exactly across all builds.
	WardEliminatedStates int64 `json:"ward_eliminated_states"`
}

// Repository builds and caches reduced models. Each distinct normalized
// ModelKey is built exactly once — concurrent requests for the same key
// coalesce onto a single grid build + BDSM reduction and all block until it
// completes (single-flight). Successful builds are retained for the life of
// the process, so admission is bounded by maxModels; failed builds are
// dropped so callers can retry. At most maxConcurrentBuilds reductions run
// at once — further distinct keys queue.
//
// With a persistent store attached, the repository reads through it before
// reducing (a disk hit skips the build entirely) and writes every fresh
// reduction back, so the next process restart starts warm. Store failures
// are never fatal to a request: a corrupt file is quarantined by the store
// and the model is rebuilt; a failed write-through is counted and dropped.
type Repository struct {
	mu        sync.Mutex
	entries   map[ModelKey]*repoEntry
	byID      map[string]*repoEntry
	maxModels int
	buildSem  chan struct{}
	store     *store.Store

	// library indexes the Scale points known per benchmark family (resident
	// models plus store-scanned metadata) — the anchor set Δ-scale
	// interpolation draws from. Keys are normalized ModelKeys with Scale
	// zeroed. Guarded by mu.
	library map[ModelKey]map[float64]struct{}
	// lastLibScan (unix nanos) rate-limits on-demand store rescans.
	lastLibScan atomic.Int64

	// interp is the bounded LRU of interpolated models (see interp.go);
	// interpolants are cheap to rebuild, so eviction is harmless. Guarded
	// by mu.
	interp     map[ModelKey]*interpEntry
	interpByID map[string]*interpEntry
	interpSeq  int64
	maxInterp  int
	interpTol  float64

	builds, memHits, diskHits, diskMisses, storeErrors atomic.Int64
	interpServed, interpFallbacks                      atomic.Int64
	wardEliminated                                     atomic.Int64

	// buildHist / phases, when set via Instrument, receive end-to-end build
	// durations and per-phase reduction timings (grid_build, partition,
	// schur, factor, krylov, modalize). Nil by default: an uninstrumented
	// repository records nothing and pays nothing.
	buildHist *obs.Histogram
	phases    *obs.HistogramVec
}

type repoEntry struct {
	ready chan struct{} // closed when model/err are set
	model *Model
	err   error
}

// Instrument attaches a build-duration histogram and a per-phase reduction
// timing histogram vector (label: phase). Must be called before the
// repository serves requests.
func (r *Repository) Instrument(build *obs.Histogram, phases *obs.HistogramVec) {
	r.buildHist = build
	r.phases = phases
}

// phaseFunc returns the per-phase timing callback builds thread into the
// reduction pipeline, or nil when uninstrumented.
func (r *Repository) phaseFunc() func(string, time.Duration) {
	phases := r.phases
	if phases == nil {
		return nil
	}
	return func(phase string, d time.Duration) {
		phases.With(phase).Observe(d.Seconds())
	}
}

// NewRepositoryWithStore returns a repository backed by the given persistent
// ROM store (nil for memory-only): reductions write through to it and misses
// read through it before building.
func NewRepositoryWithStore(maxModels int, st *store.Store) *Repository {
	if maxModels <= 0 {
		maxModels = DefaultMaxModels
	}
	return &Repository{
		entries:    make(map[ModelKey]*repoEntry),
		byID:       make(map[string]*repoEntry),
		maxModels:  maxModels,
		buildSem:   make(chan struct{}, maxConcurrentBuilds),
		store:      st,
		library:    make(map[ModelKey]map[float64]struct{}),
		interp:     make(map[ModelKey]*interpEntry),
		interpByID: make(map[string]*interpEntry),
		maxInterp:  DefaultMaxInterpModels,
		interpTol:  DefaultInterpTol,
	}
}

// errNotInStore marks a preload-only miss: a store entry vanished (e.g. was
// quarantined) between Scan and load. It must never escape to Get callers —
// they fall back to building.
var errNotInStore = errors.New("serve: model is not in the store")

// Get returns the model for key, building it if absent (first trying the
// persistent store, then the full reduction pipeline). The Outcome reports
// where the model came from; it is meaningful only on success. Get fails
// with ErrRepositoryFull when the model bound is reached.
func (r *Repository) Get(key ModelKey) (*Model, Outcome, error) {
	for {
		m, outcome, err := r.get(key, true)
		if !errors.Is(err, errNotInStore) {
			return m, outcome, err
		}
		// This call coalesced onto a concurrent Preload's entry just as its
		// store file vanished. The preload owner is deleting the failed
		// entry; yield and retry so this request builds the model instead of
		// inheriting preload's build suppression.
		runtime.Gosched()
	}
}

// get is Get with build control: preloading passes allowBuild=false so a
// store entry that vanished mid-scan is skipped instead of triggering the
// reduction preload exists to avoid.
func (r *Repository) get(key ModelKey, allowBuild bool) (*Model, Outcome, error) {
	if err := key.Validate(); err != nil {
		return nil, OutcomeMemHit, err
	}
	key.Normalize()
	r.mu.Lock()
	if e, ok := r.entries[key]; ok {
		r.mu.Unlock()
		<-e.ready
		if e.err == nil {
			r.memHits.Add(1)
		}
		return e.model, OutcomeMemHit, e.err
	}
	if len(r.entries) >= r.maxModels {
		r.mu.Unlock()
		return nil, OutcomeMemHit, fmt.Errorf("%w (%d models)", ErrRepositoryFull, r.maxModels)
	}
	e := &repoEntry{ready: make(chan struct{})}
	r.entries[key] = e
	r.byID[key.ID()] = e
	r.mu.Unlock()

	outcome := OutcomeDiskHit
	e.model = r.loadFromStore(key)
	if e.model == nil {
		if !allowBuild {
			e.err = fmt.Errorf("%w: %s", errNotInStore, key.ID())
		} else {
			outcome = OutcomeBuilt
			var elapsed time.Duration
			e.model, elapsed, e.err = safeBuild(key, r.buildSem, r.phaseFunc())
			if e.err == nil {
				// elapsed is measured inside the build slot, so the histogram
				// records build cost, not semaphore queueing.
				r.buildHist.Observe(elapsed.Seconds())
				r.builds.Add(1)
				r.wardEliminated.Add(int64(e.model.WardEliminated))
				r.writeThrough(key, e.model)
			}
		}
	}
	close(e.ready)
	if e.err != nil {
		r.mu.Lock()
		if r.entries[key] == e {
			delete(r.entries, key)
			delete(r.byID, key.ID())
		}
		r.mu.Unlock()
		return nil, outcome, e.err
	}
	r.mu.Lock()
	r.libraryAdd(key)
	// A real (reduced or stored) model supersedes any interpolant cached
	// under the same key: keeping both would double-list the ID in Models()
	// and pin a permanently shadowed LRU slot.
	if ie, ok := r.interp[key]; ok {
		delete(r.interp, key)
		if r.interpByID[key.ID()] == ie {
			delete(r.interpByID, key.ID())
		}
	}
	r.mu.Unlock()
	return e.model, outcome, nil
}

// libraryAdd records key's Scale as a known anchor point of its benchmark
// family. Caller holds mu.
func (r *Repository) libraryAdd(key ModelKey) {
	lk := key
	lk.Scale = 0
	set, ok := r.library[lk]
	if !ok {
		set = make(map[float64]struct{})
		r.library[lk] = set
	}
	set[key.Scale] = struct{}{}
}

// loadFromStore attempts a read-through of the persistent store, returning
// nil on any miss or failure (corrupt files are quarantined inside the
// store; the caller falls back to building). The stored ROM is addressed by
// the model identity and the exact grid fingerprint, so a benchmark whose
// generation parameters changed since the ROM was written simply misses.
func (r *Repository) loadFromStore(key ModelKey) *Model {
	if r.store == nil {
		return nil
	}
	cfg, err := grid.Benchmark(key.Benchmark, key.Scale)
	if err != nil {
		return nil
	}
	cfg.RCOnly = key.RCOnly
	gridKey := cfg.Key()
	rom, modal, meta, err := r.store.Get(key.ID(), gridKey)
	if err != nil {
		r.diskMisses.Add(1)
		return nil
	}
	rediagonalized := modal == nil
	if rediagonalized {
		// Stored before modal persistence (or stripped): diagonalize now.
		// The store validated the ROM, so this cannot fail short of a bug;
		// if it does, the entry is treated as unreadable and rebuilt.
		if modal, err = rom.Modalize(); err != nil {
			r.storeErrors.Add(1)
			return nil
		}
	}
	r.diskHits.Add(1)
	m := newModel(key, modal, gridKey, meta.Nodes)
	m.BuildTime = time.Duration(meta.BuildNS)
	m.ReduceTime = time.Duration(meta.ReduceNS)
	m.Created = meta.Created
	m.FromStore = true
	if rediagonalized {
		// Upgrade the stored file in place so the diagonalization is paid
		// once, not on every restart.
		r.writeThrough(key, m)
	}
	return m
}

// writeThrough persists a freshly reduced model. Failures are counted, not
// surfaced: the request already holds a valid in-memory model.
func (r *Repository) writeThrough(key ModelKey, m *Model) {
	if r.store == nil {
		return
	}
	keyJSON, err := json.Marshal(key)
	if err != nil {
		r.storeErrors.Add(1)
		return
	}
	meta := store.Meta{
		ID:          m.ID,
		GridKey:     m.GridKey,
		ModelKey:    keyJSON,
		Nodes:       m.Nodes,
		Ports:       m.Ports,
		Outputs:     m.Outputs,
		Order:       m.Order,
		Blocks:      m.Blocks,
		ModalBlocks: m.ModalBlocks,
		BuildNS:     int64(m.BuildTime),
		ReduceNS:    int64(m.ReduceTime),
		Created:     m.Created,
	}
	if err := r.store.Put(meta, m.ROM, m.Modal); err != nil {
		r.storeErrors.Add(1)
	}
}

// Preload scans the persistent store and registers every valid ROM without
// reducing anything — the warm-restart path. Entries that fail to load
// (quarantined mid-scan, repository full, malformed keys) are skipped; the
// returned count is the number of models resident after their preload
// attempt. Safe to run concurrently with request traffic: registration goes
// through the same single-flight path as Get.
func (r *Repository) Preload() (int, error) {
	if r.store == nil {
		return 0, nil
	}
	metas, err := r.store.Scan()
	if err != nil {
		return 0, err
	}
	// This scan doubles as a library refresh; stamp it so the first Δ-scale
	// request does not immediately rescan the directory.
	r.lastLibScan.Store(time.Now().UnixNano())
	loaded := 0
	for _, meta := range metas {
		key, ok := keyFromMeta(meta.ModelKey, meta.ID)
		if !ok {
			continue
		}
		// Merge the anchor library from this same scan (models that fail to
		// register below — e.g. repository full — still anchor Δ-scale
		// interpolation, which loads them read-only on demand).
		r.libraryAddFromMeta(key, meta.GridKey)
		if _, _, err := r.get(key, false); err == nil {
			loaded++
		}
	}
	return loaded, nil
}

// keyFromMeta recovers and vets the ModelKey a store metadata record claims
// to describe: it must unmarshal, validate, and normalize back to the ID it
// is stored under.
func keyFromMeta(raw json.RawMessage, id string) (ModelKey, bool) {
	if len(raw) == 0 {
		return ModelKey{}, false
	}
	var key ModelKey
	if json.Unmarshal(raw, &key) != nil || key.Validate() != nil {
		return ModelKey{}, false
	}
	key.Normalize()
	if key.ID() != id {
		return ModelKey{}, false // metadata does not describe the key it claims
	}
	return key, true
}

// Stats reports repository activity counters.
func (r *Repository) Stats() RepoStats {
	r.mu.Lock()
	models := len(r.entries)
	interpModels := len(r.interp)
	r.mu.Unlock()
	return RepoStats{
		Models:               models,
		Builds:               r.builds.Load(),
		MemHits:              r.memHits.Load(),
		DiskHits:             r.diskHits.Load(),
		DiskMisses:           r.diskMisses.Load(),
		StoreErrors:          r.storeErrors.Load(),
		InterpModels:         interpModels,
		InterpServed:         r.interpServed.Load(),
		InterpFallbacks:      r.interpFallbacks.Load(),
		WardEliminatedStates: r.wardEliminated.Load(),
	}
}

// Lookup resolves a model by its ID without triggering a build. It blocks if
// the model is still reducing. Interpolated models resolve like reduced ones.
// On an in-memory miss the persistent store is consulted, so a replica that
// never reduced a model can still serve by-id requests after a sibling wrote
// it through a shared store — the failover path a router tier relies on.
func (r *Repository) Lookup(id string) (*Model, error) {
	r.mu.Lock()
	e, ok := r.byID[id]
	if !ok {
		if ie, iok := r.interpByID[id]; iok {
			r.interpTouch(ie)
			r.mu.Unlock()
			return ie.model, nil
		}
	}
	r.mu.Unlock()
	if !ok {
		if m := r.lookupStoreByID(id); m != nil {
			return m, nil
		}
		return nil, fmt.Errorf("serve: unknown model %q (POST /reduce first)", id)
	}
	<-e.ready
	return e.model, e.err
}

// lookupStoreByID read-throughs the persistent store for a model known only
// by ID: scan the metadata, recover the ModelKey it claims, and register the
// model store-only (never building — an unknown id must not trigger a
// reduction). Returns nil on any miss.
func (r *Repository) lookupStoreByID(id string) *Model {
	if r.store == nil {
		return nil
	}
	metas, err := r.store.Scan()
	if err != nil {
		return nil
	}
	for _, meta := range metas {
		if meta.ID != id {
			continue
		}
		key, ok := keyFromMeta(meta.ModelKey, meta.ID)
		if !ok {
			return nil
		}
		m, _, err := r.get(key, false)
		if err != nil {
			return nil
		}
		return m
	}
	return nil
}

// Models lists all successfully built models plus the resident interpolated
// ones (identifiable by Model.Interp), sorted by ID. In-flight builds are
// skipped rather than waited for.
func (r *Repository) Models() []*Model {
	r.mu.Lock()
	entries := make([]*repoEntry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	interp := make([]*Model, 0, len(r.interp))
	for _, ie := range r.interp {
		interp = append(interp, ie.model)
	}
	r.mu.Unlock()
	out := make([]*Model, 0, len(entries)+len(interp))
	for _, e := range entries {
		select {
		case <-e.ready:
			if e.err == nil {
				out = append(out, e.model)
			}
		default:
		}
	}
	out = append(out, interp...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// safeBuild runs buildModel under the build semaphore, releasing the slot
// and converting panics to errors on every exit path — a panicking build
// must not strand a semaphore slot or leave single-flight waiters blocked
// on a ready channel that never closes. The returned duration is measured
// after the semaphore is acquired, so it reflects build cost alone, not the
// time spent queued behind other builds.
func safeBuild(key ModelKey, sem chan struct{}, phase func(string, time.Duration)) (m *Model, elapsed time.Duration, err error) {
	sem <- struct{}{}
	defer func() { <-sem }()
	t0 := time.Now()
	defer func() {
		elapsed = time.Since(t0)
		if r := recover(); r != nil {
			m, err = nil, fmt.Errorf("serve: building %s panicked: %v", key.ID(), r)
		}
	}()
	m, err = buildModel(key, phase)
	return m, 0, err // elapsed is stamped by the deferred closure
}

// buildModel runs the full pipeline for one key: generate the synthetic
// grid, stamp it into a descriptor system, and reduce it with BDSM after the
// exact Ward pre-reduction. phase, when non-nil, receives per-phase
// wall-clock timings (grid_build, partition, schur, factor, krylov,
// modalize) so slow reductions are decomposable; every label is reported
// exactly once per build, as zero when its stage is skipped.
func buildModel(key ModelKey, phase func(string, time.Duration)) (*Model, error) {
	cfg, err := grid.Benchmark(key.Benchmark, key.Scale)
	if err != nil {
		return nil, err
	}
	cfg.RCOnly = key.RCOnly

	tBuild := time.Now()
	gm, err := cfg.Build()
	if err != nil {
		return nil, fmt.Errorf("serve: building %s: %w", key.ID(), err)
	}
	sys, err := lti.NewSparseSystem(gm.C, gm.G, gm.B, gm.L)
	if err != nil {
		return nil, fmt.Errorf("serve: wrapping %s: %w", key.ID(), err)
	}
	buildTime := time.Since(tBuild)
	if phase != nil {
		phase("grid_build", buildTime)
	}

	var stats core.Stats
	tReduce := time.Now()
	rom, err := core.Reduce(sys, core.Options{
		S0:         key.S0,
		Moments:    key.Moments,
		Backend:    krylov.BackendAuto,
		WardReduce: true,
		Stats:      &stats,
		OnPhase:    phase,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: reducing %s: %w", key.ID(), err)
	}
	reduceTime := time.Since(tReduce)

	// Diagonalize each block once, right after the reduction — every
	// subsequent evaluation of this model runs through the modal form.
	tModal := time.Now()
	modal, err := rom.Modalize()
	if err != nil {
		return nil, fmt.Errorf("serve: diagonalizing %s: %w", key.ID(), err)
	}
	if phase != nil {
		phase("modalize", time.Since(tModal))
	}

	n, _, _ := sys.Dims()
	mdl := newModel(key, modal, cfg.Key(), n)
	mdl.BuildTime = buildTime
	mdl.ReduceTime = reduceTime
	mdl.Created = time.Now()
	mdl.WardEliminated = stats.Ward.External
	return mdl, nil
}

// newModel wraps the modal form of a ROM for serving under key, deriving in
// one place everything that follows from the two: the ID and its JSON
// encoding, the ROM's dimensions and block counts, and the packed sweep
// form. nodes is the unreduced grid's state count; the caller fills in the
// timings and provenance it knows.
func newModel(key ModelKey, modal *lti.ModalSystem, gridKey string, nodes int) *Model {
	id := key.ID()
	order, ports, outputs := modal.Dims()
	modalBlocks, _ := modal.ModalCount()
	return &Model{
		ID:          id,
		idJSON:      jsonString(id),
		Key:         key,
		Nodes:       nodes,
		Ports:       ports,
		Outputs:     outputs,
		Order:       order,
		Blocks:      len(modal.BD.Blocks),
		ModalBlocks: modalBlocks,
		ROM:         modal.BD,
		Modal:       modal,
		Packed:      modal.Pack(),
		GridKey:     gridKey,
	}
}
