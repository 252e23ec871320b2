package serve

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("store.Open(%s): %v", dir, err)
	}
	return st
}

// corruptStoreFile flips a byte in the middle of every .rom file under dir.
func corruptStoreFile(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ent := range entries {
		if !strings.HasSuffix(ent.Name(), ".rom") {
			continue
		}
		p := filepath.Join(dir, ent.Name())
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x20
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n == 0 {
		t.Fatal("no .rom files to corrupt")
	}
}

// TestWarmRestartSkipsReduction is the acceptance test for the persistent
// store: build a model in one repository, reopen a fresh repository on the
// same directory, and the model must be served from disk with zero
// reductions performed.
func TestWarmRestartSkipsReduction(t *testing.T) {
	dir := t.TempDir()
	key := ModelKey{Benchmark: "ckt1", Scale: 0.1}

	repo1 := NewRepositoryWithStore(openStore(t, dir))
	m1, outcome, err := repo1.Get(key)
	if err != nil {
		t.Fatalf("cold Get: %v", err)
	}
	if outcome != OutcomeBuilt {
		t.Fatalf("cold Get outcome = %v, want built", outcome)
	}
	if st := repo1.Store().Stats(); st.Writes != 1 || st.Entries != 1 {
		t.Fatalf("after write-through: store stats = %+v, want 1 write / 1 entry", st)
	}

	// "Restart": a brand-new repository and store handle on the same dir.
	repo2 := NewRepositoryWithStore(openStore(t, dir))
	m2, outcome, err := repo2.Get(key)
	if err != nil {
		t.Fatalf("warm Get: %v", err)
	}
	if outcome != OutcomeDiskHit {
		t.Fatalf("warm Get outcome = %v, want disk", outcome)
	}
	if !m2.FromStore {
		t.Fatal("warm model not marked FromStore")
	}
	stats := repo2.Stats()
	if stats.Builds != 0 {
		t.Fatalf("warm restart performed %d reductions, want 0", stats.Builds)
	}
	if stats.DiskHits != 1 || stats.DiskMisses != 0 {
		t.Fatalf("repo stats = %+v, want 1 disk hit / 0 disk misses", stats)
	}

	// The restored model is bit-identical and metadata survived.
	if !reflect.DeepEqual(m1.ROM, m2.ROM) {
		t.Fatal("restored ROM differs from the built ROM")
	}
	if m1.Nodes != m2.Nodes || m1.Order != m2.Order || m1.Blocks != m2.Blocks ||
		m1.Ports != m2.Ports || m1.Outputs != m2.Outputs {
		t.Fatalf("metadata changed across restart: built %+v, restored %+v", m1, m2)
	}
	if m2.ReduceTime != m1.ReduceTime || !m2.Created.Equal(m1.Created) {
		t.Fatalf("provenance changed across restart: %v/%v vs %v/%v",
			m1.ReduceTime, m1.Created, m2.ReduceTime, m2.Created)
	}

	// Same key again: now a memory hit, still zero builds.
	if _, outcome, err := repo2.Get(key); err != nil || outcome != OutcomeMemHit {
		t.Fatalf("resident Get: outcome=%v err=%v, want memory hit", outcome, err)
	}
	if repo2.Stats().Builds != 0 {
		t.Fatal("resident Get triggered a build")
	}
}

// TestWarmRestartCorruptStoreRebuilds: a corrupted store file is
// quarantined and the model silently rebuilt — the server stays healthy and
// the store heals via write-through.
func TestWarmRestartCorruptStoreRebuilds(t *testing.T) {
	dir := t.TempDir()
	key := ModelKey{Benchmark: "ckt1", Scale: 0.1}

	repo1 := NewRepositoryWithStore(openStore(t, dir))
	m1, _, err := repo1.Get(key)
	if err != nil {
		t.Fatalf("cold Get: %v", err)
	}
	corruptStoreFile(t, dir)

	repo2 := NewRepositoryWithStore(openStore(t, dir))
	m2, outcome, err := repo2.Get(key)
	if err != nil {
		t.Fatalf("Get over corrupt store: %v", err)
	}
	if outcome != OutcomeBuilt {
		t.Fatalf("outcome = %v, want rebuild after quarantine", outcome)
	}
	if !reflect.DeepEqual(m1.ROM, m2.ROM) {
		t.Fatal("rebuilt ROM differs (generation is seeded and must be deterministic)")
	}
	st := repo2.Store().Stats()
	if st.Quarantined != 1 || st.CorruptDropped != 1 {
		t.Fatalf("store stats = %+v, want 1 quarantined", st)
	}
	// Write-through healed the store: the next restart is warm again.
	if st.Writes != 1 || st.Entries != 1 {
		t.Fatalf("store stats = %+v, want healed entry", st)
	}
	repo3 := NewRepositoryWithStore(openStore(t, dir))
	if _, outcome, err := repo3.Get(key); err != nil || outcome != OutcomeDiskHit {
		t.Fatalf("post-heal Get: outcome=%v err=%v, want disk hit", outcome, err)
	}
}

// TestRepositoryPreload: Preload registers every stored model without
// reducing, skips corrupt files, and respects the admission bound.
func TestRepositoryPreload(t *testing.T) {
	dir := t.TempDir()
	keys := []ModelKey{
		{Benchmark: "ckt1", Scale: 0.08},
		{Benchmark: "ckt1", Scale: 0.1},
	}
	repo1 := NewRepositoryWithStore(openStore(t, dir))
	for _, k := range keys {
		if _, _, err := repo1.Get(k); err != nil {
			t.Fatalf("seeding %s: %v", k.ID(), err)
		}
	}

	repo2 := NewRepositoryWithStore(openStore(t, dir))
	n, err := repo2.Preload()
	if err != nil {
		t.Fatalf("Preload: %v", err)
	}
	if n != len(keys) {
		t.Fatalf("Preload registered %d models, want %d", n, len(keys))
	}
	if st := repo2.Stats(); st.Builds != 0 || st.DiskHits != int64(len(keys)) {
		t.Fatalf("repo stats after preload = %+v, want 0 builds / %d disk hits", st, len(keys))
	}
	models := repo2.Models()
	if len(models) != len(keys) {
		t.Fatalf("%d models resident after preload, want %d", len(models), len(keys))
	}
	for _, m := range models {
		if !m.FromStore {
			t.Fatalf("preloaded model %s not marked FromStore", m.ID)
		}
	}
	// Lookup by ID works without any build.
	if _, err := repo2.Lookup(keys[0].ID()); err != nil {
		t.Fatalf("Lookup after preload: %v", err)
	}

	// A corrupt file is skipped (and quarantined), not fatal.
	corruptStoreFile(t, dir)
	repo3 := NewRepositoryWithStore(openStore(t, dir))
	if n, err := repo3.Preload(); err != nil || n != 0 {
		t.Fatalf("Preload over corrupt store = %d, %v; want 0, nil", n, err)
	}
	if st := repo3.Store().Stats(); st.Quarantined != len(keys) {
		t.Fatalf("store stats = %+v, want %d quarantined", st, len(keys))
	}

	// Preload respects the repository bound: with room for one model it
	// registers exactly one and skips the rest.
	repo4 := NewRepositoryWithStore(openStore(t, dir2(t, keys)))
	fillRepository(repo4, 1)
	if n, err := repo4.Preload(); err != nil || n != 1 {
		t.Fatalf("bounded Preload = %d, %v; want 1, nil", n, err)
	}
}

// dir2 seeds a fresh store directory with the given models and returns it.
func dir2(t *testing.T, keys []ModelKey) string {
	t.Helper()
	dir := t.TempDir()
	repo := NewRepositoryWithStore(openStore(t, dir))
	for _, k := range keys {
		if _, _, err := repo.Get(k); err != nil {
			t.Fatalf("seeding %s: %v", k.ID(), err)
		}
	}
	return dir
}

// TestServerWarmRestart drives the whole stack over HTTP: reduce on one
// server, preload a second server from the same store directory, and serve
// without reducing.
func TestServerWarmRestart(t *testing.T) {
	dir := t.TempDir()

	srv1 := New(Config{Workers: 2, Store: openStore(t, dir)})
	ts1 := httptest.NewServer(srv1.Handler())
	info := reduceTestModel(t, ts1)
	if info.Source != "built" || info.Cached {
		t.Fatalf("first /reduce = source %q cached %v, want fresh build", info.Source, info.Cached)
	}
	ts1.Close()
	srv1.Close()

	srv2 := New(Config{Workers: 2, Store: openStore(t, dir)})
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		srv2.Close()
	})
	n, err := srv2.PreloadStore()
	if err != nil || n != 1 {
		t.Fatalf("PreloadStore = %d, %v; want 1, nil", n, err)
	}
	if st := srv2.Repo().Stats(); st.Builds != 0 {
		t.Fatalf("preload performed %d builds, want 0", st.Builds)
	}

	// The model serves immediately — /models lists it, /reduce reports a
	// cache hit, /sweep works — all without a reduction.
	resp, err := ts2.Client().Get(ts2.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	models := decode[[]reduceResponse](t, resp)
	if len(models) != 1 || models[0].ID != info.ID || !models[0].FromStore {
		t.Fatalf("/models after preload = %+v, want the stored model marked from_store", models)
	}
	again := reduceTestModel(t, ts2)
	if !again.Cached || again.Source != "memory" {
		t.Fatalf("warm /reduce = source %q cached %v, want memory hit", again.Source, again.Cached)
	}
	// The store load keeps every block's modal form, so the sweep below
	// needs no pencil factorization.
	m, err := srv2.Repo().Lookup(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if m.ModalBlocks != m.Blocks {
		t.Fatalf("preloaded model lost modal coverage: %d/%d blocks", m.ModalBlocks, m.Blocks)
	}
	sweepResp := postJSON(t, ts2.URL+"/sweep", sweepRequest{Model: info.ID, Row: 0, Col: 0, WMin: 1e6, WMax: 1e12, Points: 10})
	sweepResp.Body.Close()
	if sweepResp.StatusCode != 200 {
		t.Fatalf("/sweep after preload: status %d", sweepResp.StatusCode)
	}
	if st := srv2.Repo().Stats(); st.Builds != 0 {
		t.Fatalf("serving after preload performed %d builds, want 0", st.Builds)
	}

	// Merged cache stats expose the disk traffic and the served sweep.
	cs := srv2.CacheStats()
	if cs.DiskHits < 1 {
		t.Fatalf("cache stats missing disk hits: %+v", cs)
	}
	if cs.ModalEvals < 10 {
		t.Fatalf("preloaded model did not serve modally: %+v", cs)
	}
}

// TestLegacyStoreEntryUpgradedWithModal: a store file written without a
// modal section (pre-v2-modal producer) is re-diagonalized once on load and
// upgraded in place, so the next restart reads the modal form from disk.
func TestLegacyStoreEntryUpgradedWithModal(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)

	// Build a model once to obtain a valid ROM + metadata, then overwrite
	// its store entry with a modal-less file (what an old binary wrote).
	repo1 := NewRepositoryWithStore(st)
	key := ModelKey{Benchmark: "ckt1", Scale: 0.1}
	m, _, err := repo1.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	keyJSON, _ := json.Marshal(func() ModelKey { k := key; k.Normalize(); return k }())
	legacyMeta := store.Meta{
		ID: m.ID, GridKey: m.GridKey, ModelKey: keyJSON,
		Nodes: m.Nodes, Ports: m.Ports, Outputs: m.Outputs,
		Order: m.Order, Blocks: m.Blocks,
		Created: m.Created,
	}
	if err := st.Put(legacyMeta, m.ROM, nil); err != nil {
		t.Fatal(err)
	}
	if _, modal, _, err := st.Get(m.ID, m.GridKey); err != nil || modal != nil {
		t.Fatalf("precondition: store entry should be modal-less (modal=%v, err=%v)", modal != nil, err)
	}

	// A fresh repository loads the legacy entry, diagonalizes, and must
	// write the upgraded file back.
	repo2 := NewRepositoryWithStore(openStore(t, dir))
	m2, outcome, err := repo2.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != OutcomeDiskHit {
		t.Fatalf("outcome = %v, want disk hit", outcome)
	}
	if m2.Modal == nil || m2.ModalBlocks != m2.Blocks {
		t.Fatalf("legacy load did not produce a modal form (%d/%d)", m2.ModalBlocks, m2.Blocks)
	}
	if _, modal, meta, err := st.Get(m.ID, m.GridKey); err != nil || modal == nil {
		t.Fatalf("store entry was not upgraded with the modal form (err=%v)", err)
	} else if meta.ModalBlocks != m2.ModalBlocks {
		t.Fatalf("upgraded meta.ModalBlocks = %d, want %d", meta.ModalBlocks, m2.ModalBlocks)
	}
}
