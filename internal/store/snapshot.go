// Session-snapshot persistence: a second payload kind alongside ROMs.
//
// A transient session's integrator state is a few complex numbers per modal
// block — tiny, but the only thing a replica owns that the content-addressed
// ROM store does not already make recoverable. Persisting snapshots through
// the same store directory makes replicas stateless: a session created on one
// replica can resume on any other that shares the directory, which is what
// lets a router tier route around a dead or draining replica without losing
// client state.
//
// On-disk format: one file per session, named by the first 24 hex digits of
// SHA-256("snap" NUL session id) with extension ".snap", in the frame layout
// the ROM files use (see frame) with magic "PGSNAPS1", version
// SnapshotFormatVersion, SnapshotMeta as the metadata and a sim.StepperState
// binary frame (opaque to this package) as the payload.
//
// Writes are atomic (temp + fsync + rename) and corrupt files are
// quarantined exactly like ROM entries: a snapshot that fails any validation
// step is renamed aside and reported as ErrNotFound, so the worst a corrupt
// file costs is one lost resume, never a crash or a wrong state.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"
)

// SnapshotFormatVersion is the snapshot file format version this package
// reads and writes.
const SnapshotFormatVersion = 1

const snapExt = ".snap"

// SnapshotMeta is the sidecar metadata persisted with each session snapshot —
// everything a resuming replica needs to rebuild the session's stepper
// (through the model repository) before restoring the state payload.
type SnapshotMeta struct {
	// SessionID is the session identity; it addresses the snapshot.
	SessionID string `json:"session_id"`
	// ModelID and ModelKey identify the model the session integrates;
	// ModelKey is stored opaquely (the serve layer's key JSON) so resume can
	// re-resolve the model even when it is not resident.
	ModelID  string          `json:"model_id"`
	ModelKey json.RawMessage `json:"model_key,omitempty"`
	// Dt and Method pin the integrator configuration; a snapshot only
	// restores onto a stepper built with the same pair.
	Dt     float64 `json:"dt"`
	Method string  `json:"method"`
	// Step is the integration step the payload captures; Emitted0 records
	// whether the session already streamed its t = 0 row; Advances counts
	// completed advances.
	Step     int64 `json:"step"`
	Emitted0 bool  `json:"emitted0"`
	Advances int64 `json:"advances"`
	// Deadline is the session's hard TTL deadline: a resume must not extend
	// the session's life beyond what its creator was promised.
	Deadline time.Time `json:"deadline"`
	Created  time.Time `json:"created"`
	Saved    time.Time `json:"saved"`
}

// snapAddr maps a session id to its snapshot file name. The "snap" prefix
// keeps the hash domain disjoint from ROM addresses.
func snapAddr(sessionID string) string {
	sum := sha256.Sum256([]byte("snap\x00" + sessionID))
	return hex.EncodeToString(sum[:12]) + snapExt
}

func (s *Store) snapPath(sessionID string) string {
	return filepath.Join(s.dir, snapAddr(sessionID))
}

// snapPrevPath is the previous-generation slot: PutSnapshot rotates the
// current snapshot here before publishing a new one. The ".prev" suffix
// keeps these files out of Stats' snapshot count (which matches ".snap").
func (s *Store) snapPrevPath(sessionID string) string {
	return s.snapPath(sessionID) + ".prev"
}

// ErrNoSnapshotAtStep reports that snapshots exist for the session but none
// captures the requested step — the caller wanted to rewind further than the
// two retained generations reach.
var ErrNoSnapshotAtStep = errors.New("store: no snapshot at requested step")

// PutSnapshot persists one session snapshot at its address, rotating the
// current snapshot (if any) into the previous-generation slot first. Keeping
// two generations is what makes router-tier failover exact even when a
// replica dies after completing an advance whose response never reached the
// client: the latest snapshot is then one advance AHEAD of what the client
// observed, and the previous generation still captures the step the client
// last saw, so the lost advance can be replayed from it.
func (s *Store) PutSnapshot(meta SnapshotMeta, payload []byte) error {
	if meta.SessionID == "" {
		s.writeErrors.Add(1)
		return errors.New("store: PutSnapshot requires meta.SessionID")
	}
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		s.writeErrors.Add(1)
		return fmt.Errorf("store: encoding snapshot metadata: %w", err)
	}
	data := snapFrame.encode(metaJSON, payload)
	p := s.snapPath(meta.SessionID)
	// Rotate before publishing: rename is atomic, and if the new write fails
	// the previous state survives in the .prev slot (GetSnapshot falls back
	// to it).
	if err := os.Rename(p, s.snapPrevPath(meta.SessionID)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		s.writeErrors.Add(1)
		return fmt.Errorf("store: rotating snapshot: %w", err)
	}
	if err := s.writeAtomic(p, data); err != nil {
		s.writeErrors.Add(1)
		return err
	}
	s.snapWrites.Add(1)
	return nil
}

// readSnapshotFile loads and validates one snapshot file, quarantining it on
// any failure. Missing files return ErrNotFound un-wrapped.
func (s *Store) readSnapshotFile(p, sessionID string) (SnapshotMeta, []byte, error) {
	data, err := os.ReadFile(p)
	if errors.Is(err, fs.ErrNotExist) {
		return SnapshotMeta{}, nil, ErrNotFound
	}
	if err != nil {
		return SnapshotMeta{}, nil, fmt.Errorf("store: reading %s: %w", p, err)
	}
	meta, payload, err := decodeFrame[SnapshotMeta](snapFrame, data)
	if err == nil && meta.SessionID != sessionID {
		err = fmt.Errorf("store: snapshot addresses session %q, requested %q", meta.SessionID, sessionID)
	}
	if err != nil {
		s.quarantine(p, data)
		return SnapshotMeta{}, nil, fmt.Errorf("%w (quarantined %s: %v)", ErrNotFound, filepath.Base(p), err)
	}
	return meta, payload, nil
}

// GetSnapshot loads the latest snapshot persisted for a session, falling
// back to the previous generation when the latest is missing or corrupt. A
// session with no usable snapshot returns (wrapped) ErrNotFound — the
// caller's recovery (the session is unrecoverable, create a fresh one) is
// the same for missing and quarantined files.
func (s *Store) GetSnapshot(sessionID string) (SnapshotMeta, []byte, error) {
	meta, payload, err := s.readSnapshotFile(s.snapPath(sessionID), sessionID)
	if err == nil {
		return meta, payload, nil
	}
	if pm, pp, perr := s.readSnapshotFile(s.snapPrevPath(sessionID), sessionID); perr == nil {
		return pm, pp, nil
	}
	return SnapshotMeta{}, nil, err
}

// GetSnapshotAt loads the snapshot capturing exactly the given step,
// checking the latest generation first, then the previous one. When
// snapshots exist but neither matches, the error wraps ErrNoSnapshotAtStep
// (distinct from ErrNotFound: the session IS resumable, just not from that
// step).
func (s *Store) GetSnapshotAt(sessionID string, step int64) (SnapshotMeta, []byte, error) {
	var have []int64
	for _, p := range []string{s.snapPath(sessionID), s.snapPrevPath(sessionID)} {
		meta, payload, err := s.readSnapshotFile(p, sessionID)
		if err != nil {
			continue
		}
		if meta.Step == step {
			return meta, payload, nil
		}
		have = append(have, meta.Step)
	}
	if len(have) == 0 {
		return SnapshotMeta{}, nil, ErrNotFound
	}
	return SnapshotMeta{}, nil, fmt.Errorf("%w: want step %d, have %v", ErrNoSnapshotAtStep, step, have)
}

// DeleteSnapshot removes both generations of a session's persisted snapshot
// (explicit session deletion, or cleanup after a successful resume handoff).
// Missing files are not an error.
func (s *Store) DeleteSnapshot(sessionID string) error {
	var firstErr error
	for _, p := range []string{s.snapPath(sessionID), s.snapPrevPath(sessionID)} {
		if err := os.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) && firstErr == nil {
			firstErr = fmt.Errorf("store: deleting snapshot: %w", err)
		}
	}
	return firstErr
}

// writeAtomic publishes data at path via the store's temp + fsync + rename
// discipline, shared by ROM and snapshot writers.
func (s *Store) writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(s.dir, "tmp-*")
	if err != nil {
		return fmt.Errorf("store: creating temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: writing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: syncing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: closing %s: %w", tmp.Name(), err)
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return fmt.Errorf("store: chmod %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: publishing %s: %w", filepath.Base(path), err)
	}
	return nil
}
