// Package store is the persistent ROM store: a content-addressed, disk-backed
// library of block-diagonal reduced models keyed by the serving layer's model
// identity (ModelKey.ID()) together with the exact grid configuration
// fingerprint (grid.Config.Key()).
//
// The paper's central economy is "reduce once, evaluate forever" — a ROM is a
// reusable artifact. Persisting it lets a restarted server skip the grid
// build and BDSM reduction entirely: a warm restart reads the ROM back in
// milliseconds instead of re-running the most expensive operation in the
// system. Keying on the grid fingerprint (not just the model name) makes the
// store self-invalidating: if a benchmark's generation parameters change
// between binary versions, the address changes with them and the stale file
// is simply never found.
//
// On-disk format: one file per ROM, named by the first 24 hex digits of
// SHA-256(id NUL gridKey) with extension ".rom", in the frame layout (see
// frame) with magic "PGROMST1", version FormatVersion, Meta as the metadata
// and an lti.SaveModal (or SaveBlockDiag) stream, itself versioned and
// checksummed, as the payload.
//
// Writes are atomic: the file is assembled in a temp file in the same
// directory, fsynced, and renamed into place, so a reader never observes a
// torn file — it sees the old ROM, the new ROM, or nothing. Any file that
// fails validation on read (bad magic, version, checksum, metadata mismatch,
// or ROM decode error) is quarantined — renamed aside with a ".quarantined"
// suffix — and reported as a miss, so one corrupt file costs one rebuild
// rather than a crash or a silently wrong model.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lti"
)

// FormatVersion is the store file format version this package reads and
// writes. Files with any other version are quarantined, never half-decoded.
// Version 2 switched the ROM payload to the lti format that embeds the
// modal (diagonalize-once) form; version-1 files are quarantined and their
// models rebuilt on first request.
const FormatVersion = 2

// romExt and quarantineExt are the extensions of live and quarantined files.
const (
	romExt        = ".rom"
	quarantineExt = ".quarantined"
)

// ErrNotFound reports that no (valid) ROM exists at the requested address.
// Corrupt files surface as ErrNotFound too (wrapped with the reason), after
// being quarantined: the caller's recovery — rebuild the model — is the same.
var ErrNotFound = errors.New("store: ROM not found")

// Meta is the sidecar metadata persisted with each ROM — everything the
// serving layer needs to register a model without touching the grid
// generator or the reducer.
type Meta struct {
	// ID is the serving-layer model identity (ModelKey.ID()).
	ID string `json:"id"`
	// GridKey fingerprints every generation parameter of the source grid.
	GridKey string `json:"grid_key"`
	// ModelKey is the serving layer's key, stored opaquely so this package
	// does not depend on the serve package.
	ModelKey json.RawMessage `json:"model_key,omitempty"`

	Nodes   int `json:"nodes"`
	Ports   int `json:"ports"`
	Outputs int `json:"outputs"`
	Order   int `json:"order"`
	Blocks  int `json:"blocks"`

	// ModalBlocks counts the blocks of the stored modal form that carry a
	// usable pole–residue decomposition (0 when no modal form is stored).
	ModalBlocks int `json:"modal_blocks,omitempty"`

	// BuildNS and ReduceNS record what the original build cost — the time a
	// warm restart saves.
	BuildNS  int64     `json:"build_ns"`
	ReduceNS int64     `json:"reduce_ns"`
	Created  time.Time `json:"created"`
}

// Stats is a point-in-time snapshot of store activity since Open.
type Stats struct {
	// Entries counts live .rom files on disk; Quarantined counts
	// .quarantined files (from this and previous processes).
	Entries     int   `json:"entries"`
	Quarantined int   `json:"quarantined"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Writes      int64 `json:"writes"`
	WriteErrors int64 `json:"write_errors"`
	// CorruptDropped counts files this process quarantined.
	CorruptDropped int64 `json:"corrupt_dropped"`
	// Snapshots counts live session-snapshot files on disk; SnapshotWrites
	// counts snapshot persists by this process.
	Snapshots      int   `json:"snapshots"`
	SnapshotWrites int64 `json:"snapshot_writes"`
}

// Store is a handle on one store directory. All methods are safe for
// concurrent use, including by multiple Store handles (or processes) on the
// same directory: writes are atomic renames and reads verify checksums.
type Store struct {
	dir string

	// quarantineMu serializes quarantine renames so two readers hitting the
	// same corrupt file don't race each other's rename.
	quarantineMu sync.Mutex

	hits, misses, writes, writeErrors, corrupt atomic.Int64
	snapWrites                                 atomic.Int64
}

// Open creates (if necessary) and opens a store directory.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// addr maps a (model id, grid key) pair to its content address: the file
// name is derived from the full key material, so lookups are O(1) path
// computations and arbitrary key characters never reach the filesystem.
func addr(id, gridKey string) string {
	sum := sha256.Sum256([]byte(id + "\x00" + gridKey))
	return hex.EncodeToString(sum[:12]) + romExt
}

func (s *Store) path(id, gridKey string) string {
	return filepath.Join(s.dir, addr(id, gridKey))
}

// frame is the file layout ROM files and session snapshots share
// (little-endian):
//
//	magic    [8]byte  file kind signature, human-greppable
//	version  uint32   format version of that kind
//	metaLen  uint32   length of the metadata JSON
//	meta     []byte   metadata as JSON
//	payLen   uint64   length of the payload
//	payload  []byte
//	sha256   [32]byte digest of every preceding byte
type frame struct {
	magic   string
	version uint32
	name    string // names the file kind in errors
}

var (
	romFrame  = frame{magic: "PGROMST1", version: FormatVersion, name: "ROM"}
	snapFrame = frame{magic: "PGSNAPS1", version: SnapshotFormatVersion, name: "snapshot"}
)

// encode assembles the framed file image of the metadata JSON and payload.
func (f frame) encode(meta, payload []byte) []byte {
	buf := make([]byte, 0, len(f.magic)+16+len(meta)+len(payload)+sha256.Size)
	buf = append(buf, f.magic...)
	buf = binary.LittleEndian.AppendUint32(buf, f.version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(meta)))
	buf = append(buf, meta...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

// decode verifies the frame (magic, version, checksum, lengths) and returns
// its metadata JSON and payload, both aliasing data.
func (f frame) decode(data []byte) (meta, payload []byte, err error) {
	headerLen := len(f.magic) + 8 // magic + version + metaLen
	if len(data) < headerLen+8+sha256.Size {
		return nil, nil, fmt.Errorf("store: %s file too short (%d bytes)", f.name, len(data))
	}
	if string(data[:len(f.magic)]) != f.magic {
		return nil, nil, fmt.Errorf("store: bad %s magic", f.name)
	}
	if v := binary.LittleEndian.Uint32(data[len(f.magic):]); v != f.version {
		return nil, nil, fmt.Errorf("store: %s format version %d, this build reads version %d", f.name, v, f.version)
	}
	body, sum := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if computed := sha256.Sum256(body); string(computed[:]) != string(sum) {
		return nil, nil, fmt.Errorf("store: %s checksum mismatch", f.name)
	}
	metaLen := uint64(binary.LittleEndian.Uint32(data[len(f.magic)+4:]))
	rest := body[headerLen:]
	if metaLen > uint64(len(rest)-8) {
		return nil, nil, fmt.Errorf("store: %s metadata length %d exceeds file", f.name, metaLen)
	}
	meta, rest = rest[:metaLen], rest[metaLen:]
	if payLen := binary.LittleEndian.Uint64(rest); payLen != uint64(len(rest)-8) {
		return nil, nil, fmt.Errorf("store: %s payload length %d disagrees with file (%d remaining)", f.name, payLen, len(rest)-8)
	}
	return meta, rest[8:], nil
}

// decodeFrame verifies one framed file and decodes its metadata into M,
// returning the payload bytes undecoded.
func decodeFrame[M any](f frame, data []byte) (M, []byte, error) {
	var meta M
	metaJSON, payload, err := f.decode(data)
	if err != nil {
		return meta, nil, err
	}
	if err := json.Unmarshal(metaJSON, &meta); err != nil {
		return *new(M), nil, fmt.Errorf("store: decoding %s metadata: %w", f.name, err)
	}
	return meta, payload, nil
}

// encode assembles the framed file image for one ROM, embedding the modal
// form when one is given.
func encode(meta Meta, rom *lti.BlockDiagSystem, modal *lti.ModalSystem) ([]byte, error) {
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("store: encoding metadata: %w", err)
	}
	var romBuf bytes.Buffer
	if modal != nil {
		err = lti.SaveModal(&romBuf, modal)
	} else {
		err = lti.SaveBlockDiag(&romBuf, rom)
	}
	if err != nil {
		return nil, err
	}
	return romFrame.encode(metaJSON, romBuf.Bytes()), nil
}

// Put persists one ROM at its content address, atomically replacing any
// previous version. meta.ID and meta.GridKey must be set — they are the
// address. A non-nil modal form (whose BD must be rom) is embedded so a warm
// restart recovers the factorization-free fast path without recomputing the
// eigendecompositions.
func (s *Store) Put(meta Meta, rom *lti.BlockDiagSystem, modal *lti.ModalSystem) error {
	if meta.ID == "" || meta.GridKey == "" {
		s.writeErrors.Add(1)
		return errors.New("store: Put requires meta.ID and meta.GridKey")
	}
	if modal != nil && modal.BD != rom {
		s.writeErrors.Add(1)
		return errors.New("store: modal form does not belong to the ROM being stored")
	}
	data, err := encode(meta, rom, modal)
	if err != nil {
		s.writeErrors.Add(1)
		return err
	}
	if err := s.writeAtomic(s.path(meta.ID, meta.GridKey), data); err != nil {
		s.writeErrors.Add(1)
		return err
	}
	s.writes.Add(1)
	return nil
}

// Get loads the ROM stored for (id, gridKey), together with its modal form
// when the file embeds one (nil otherwise). A missing file returns
// ErrNotFound; a file that fails any validation step is quarantined and also
// reported as (wrapped) ErrNotFound, so callers rebuild either way.
func (s *Store) Get(id, gridKey string) (*lti.BlockDiagSystem, *lti.ModalSystem, Meta, error) {
	p := s.path(id, gridKey)
	data, err := os.ReadFile(p)
	if errors.Is(err, fs.ErrNotExist) {
		s.misses.Add(1)
		return nil, nil, Meta{}, ErrNotFound
	}
	if err != nil {
		s.misses.Add(1)
		return nil, nil, Meta{}, fmt.Errorf("store: reading %s: %w", p, err)
	}
	meta, romBytes, err := decodeFrame[Meta](romFrame, data)
	if err == nil && (meta.ID != id || meta.GridKey != gridKey) {
		err = fmt.Errorf("store: file addresses %q/%q, requested %q/%q", meta.ID, meta.GridKey, id, gridKey)
	}
	var rom *lti.BlockDiagSystem
	var modal *lti.ModalSystem
	if err == nil {
		rom, modal, err = loadROM(romBytes)
	}
	if err == nil {
		if n, m, p2 := rom.Dims(); n != meta.Order || m != meta.Ports || p2 != meta.Outputs || len(rom.Blocks) != meta.Blocks {
			err = fmt.Errorf("store: ROM dims (order %d, %d×%d, %d blocks) disagree with metadata (order %d, %d×%d, %d blocks)",
				n, p2, m, len(rom.Blocks), meta.Order, meta.Outputs, meta.Ports, meta.Blocks)
		}
	}
	if err != nil {
		s.quarantine(p, data)
		s.misses.Add(1)
		return nil, nil, Meta{}, fmt.Errorf("%w (quarantined %s: %v)", ErrNotFound, filepath.Base(p), err)
	}
	s.hits.Add(1)
	return rom, modal, meta, nil
}

// loadROM decodes the payload, converting any panic in the decode path into
// an error: a corrupt file must never take the server down.
func loadROM(romBytes []byte) (rom *lti.BlockDiagSystem, modal *lti.ModalSystem, err error) {
	defer func() {
		if r := recover(); r != nil {
			rom, modal, err = nil, nil, fmt.Errorf("store: ROM decode panicked: %v", r)
		}
	}()
	return lti.LoadROM(bytes.NewReader(romBytes))
}

// quarantine moves a corrupt file aside so it is never re-read (and remains
// available for post-mortem inspection). The rename is conditional on the
// file still holding the bytes we judged corrupt: a concurrent Put may have
// already replaced it with a fresh, valid ROM, which must not be destroyed.
func (s *Store) quarantine(p string, observed []byte) {
	s.quarantineMu.Lock()
	defer s.quarantineMu.Unlock()
	current, err := os.ReadFile(p)
	if err != nil || !bytes.Equal(current, observed) {
		return // already quarantined, removed, or overwritten
	}
	if err := os.Rename(p, p+quarantineExt); err == nil {
		s.corrupt.Add(1)
	} else {
		// Renaming failed (exotic filesystem?); removal still protects
		// future reads.
		if os.Remove(p) == nil {
			s.corrupt.Add(1)
		}
	}
}

// Scan enumerates the metadata of every valid ROM in the store, quarantining
// corrupt files as it encounters them. It reads and checksums each file but
// does not decode ROM payloads, so startup preloading can decide what to
// register before paying any gob decode.
func (s *Store) Scan() ([]Meta, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: scanning %s: %w", s.dir, err)
	}
	var metas []Meta
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), romExt) {
			continue
		}
		p := filepath.Join(s.dir, ent.Name())
		data, err := os.ReadFile(p)
		if err != nil {
			continue // racing Put/quarantine; skip
		}
		meta, _, err := decodeFrame[Meta](romFrame, data)
		if err == nil && addr(meta.ID, meta.GridKey) != ent.Name() {
			err = fmt.Errorf("store: file %s does not match its address", ent.Name())
		}
		if err != nil {
			s.quarantine(p, data)
			continue
		}
		metas = append(metas, meta)
	}
	return metas, nil
}

// Stats reports store activity and current directory occupancy.
func (s *Store) Stats() Stats {
	st := Stats{
		Hits:           s.hits.Load(),
		Misses:         s.misses.Load(),
		Writes:         s.writes.Load(),
		WriteErrors:    s.writeErrors.Load(),
		CorruptDropped: s.corrupt.Load(),
		SnapshotWrites: s.snapWrites.Load(),
	}
	if entries, err := os.ReadDir(s.dir); err == nil {
		for _, ent := range entries {
			switch {
			case ent.IsDir():
			case strings.HasSuffix(ent.Name(), romExt):
				st.Entries++
			case strings.HasSuffix(ent.Name(), snapExt):
				st.Snapshots++
			case strings.HasSuffix(ent.Name(), quarantineExt):
				st.Quarantined++
			}
		}
	}
	return st
}
