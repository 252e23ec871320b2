package store

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func testSnapMeta(id string) SnapshotMeta {
	return SnapshotMeta{
		SessionID: id,
		ModelID:   "ckt1-0.25-l6-s01e09",
		ModelKey:  json.RawMessage(`{"benchmark":"ckt1","scale":0.25}`),
		Dt:        0.01,
		Method:    "backward-euler",
		Step:      37,
		Emitted0:  true,
		Advances:  3,
		Deadline:  time.Now().Add(10 * time.Minute).UTC().Truncate(time.Microsecond),
		Created:   time.Now().UTC().Truncate(time.Microsecond),
		Saved:     time.Now().UTC().Truncate(time.Microsecond),
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	meta := testSnapMeta("sess-abc")
	payload := []byte("opaque stepper state bytes")
	if err := s.PutSnapshot(meta, payload); err != nil {
		t.Fatalf("PutSnapshot: %v", err)
	}
	got, gotPayload, err := s.GetSnapshot("sess-abc")
	if err != nil {
		t.Fatalf("GetSnapshot: %v", err)
	}
	if string(gotPayload) != string(payload) {
		t.Fatalf("payload %q, want %q", gotPayload, payload)
	}
	if got.SessionID != meta.SessionID || got.ModelID != meta.ModelID ||
		got.Dt != meta.Dt || got.Method != meta.Method || got.Step != meta.Step ||
		got.Emitted0 != meta.Emitted0 || got.Advances != meta.Advances {
		t.Fatalf("metadata %+v, want %+v", got, meta)
	}
	if st := s.Stats(); st.Snapshots != 1 || st.SnapshotWrites != 1 {
		t.Fatalf("stats %+v, want 1 snapshot / 1 write", st)
	}

	// A newer snapshot atomically supersedes the old one.
	meta.Step = 74
	if err := s.PutSnapshot(meta, []byte("newer")); err != nil {
		t.Fatalf("PutSnapshot (update): %v", err)
	}
	got, gotPayload, err = s.GetSnapshot("sess-abc")
	if err != nil {
		t.Fatalf("GetSnapshot (update): %v", err)
	}
	if got.Step != 74 || string(gotPayload) != "newer" {
		t.Fatalf("updated snapshot step %d payload %q", got.Step, gotPayload)
	}
	if st := s.Stats(); st.Snapshots != 1 {
		t.Fatalf("stats after update: %+v, want 1 snapshot file", st)
	}

	if err := s.DeleteSnapshot("sess-abc"); err != nil {
		t.Fatalf("DeleteSnapshot: %v", err)
	}
	if _, _, err := s.GetSnapshot("sess-abc"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetSnapshot after delete: %v, want ErrNotFound", err)
	}
	if err := s.DeleteSnapshot("sess-abc"); err != nil {
		t.Fatalf("DeleteSnapshot (missing): %v", err)
	}
}

// TestSnapshotTwoGenerations: PutSnapshot rotates the current file into the
// .prev slot, so the last two advance states stay addressable — GetSnapshotAt
// can pin either step, and GetSnapshot falls back to the previous generation
// when the latest is damaged.
func TestSnapshotTwoGenerations(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	meta := testSnapMeta("sess-gen")
	meta.Step = 100
	if err := s.PutSnapshot(meta, []byte("state-100")); err != nil {
		t.Fatalf("PutSnapshot 100: %v", err)
	}
	meta.Step = 200
	if err := s.PutSnapshot(meta, []byte("state-200")); err != nil {
		t.Fatalf("PutSnapshot 200: %v", err)
	}

	// Latest wins for an unpinned get.
	got, payload, err := s.GetSnapshot("sess-gen")
	if err != nil || got.Step != 200 || string(payload) != "state-200" {
		t.Fatalf("GetSnapshot: step %d payload %q err %v, want 200/state-200", got.Step, payload, err)
	}
	// Both retained steps are pinnable.
	for _, want := range []struct {
		step    int64
		payload string
	}{{200, "state-200"}, {100, "state-100"}} {
		got, payload, err := s.GetSnapshotAt("sess-gen", want.step)
		if err != nil || got.Step != want.step || string(payload) != want.payload {
			t.Fatalf("GetSnapshotAt(%d): step %d payload %q err %v", want.step, got.Step, payload, err)
		}
	}
	// A step neither generation captures is ErrNoSnapshotAtStep, not
	// ErrNotFound — the session is resumable, just not from there.
	if _, _, err := s.GetSnapshotAt("sess-gen", 150); !errors.Is(err, ErrNoSnapshotAtStep) {
		t.Fatalf("GetSnapshotAt(150): %v, want ErrNoSnapshotAtStep", err)
	}
	if _, _, err := s.GetSnapshotAt("sess-none", 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetSnapshotAt on missing session: %v, want ErrNotFound", err)
	}

	// A third put retires step 100: only the newest two generations survive.
	meta.Step = 300
	if err := s.PutSnapshot(meta, []byte("state-300")); err != nil {
		t.Fatalf("PutSnapshot 300: %v", err)
	}
	if _, _, err := s.GetSnapshotAt("sess-gen", 100); !errors.Is(err, ErrNoSnapshotAtStep) {
		t.Fatalf("GetSnapshotAt(100) after third put: %v, want ErrNoSnapshotAtStep", err)
	}

	// Corrupt the latest: GetSnapshot falls back to the previous generation.
	p := s.snapPath("sess-gen")
	data, _ := os.ReadFile(p)
	data[len(data)-1] ^= 1
	os.WriteFile(p, data, 0o644)
	got, payload, err = s.GetSnapshot("sess-gen")
	if err != nil || got.Step != 200 || string(payload) != "state-200" {
		t.Fatalf("GetSnapshot with corrupt latest: step %d payload %q err %v, want prev generation (200)", got.Step, payload, err)
	}

	// DeleteSnapshot removes both generations.
	if err := s.DeleteSnapshot("sess-gen"); err != nil {
		t.Fatalf("DeleteSnapshot: %v", err)
	}
	if _, _, err := s.GetSnapshot("sess-gen"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetSnapshot after delete: %v, want ErrNotFound", err)
	}
	if _, _, err := s.GetSnapshotAt("sess-gen", 200); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetSnapshotAt after delete: %v, want ErrNotFound", err)
	}
}

func TestSnapshotMissing(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, _, err := s.GetSnapshot("never-created"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetSnapshot: %v, want ErrNotFound", err)
	}
	if err := s.PutSnapshot(SnapshotMeta{}, nil); err == nil {
		t.Fatal("PutSnapshot accepted an empty session id")
	}
}

// TestSnapshotCorruptionQuarantined: every damaged file is moved aside and
// reported as ErrNotFound — same policy as ROM entries.
func TestSnapshotCorruptionQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	meta := testSnapMeta("sess-corrupt")
	if err := s.PutSnapshot(meta, []byte("payload")); err != nil {
		t.Fatalf("PutSnapshot: %v", err)
	}
	p := s.snapPath("sess-corrupt")
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatalf("reading snapshot file: %v", err)
	}

	corruptions := map[string]func([]byte) []byte{
		"bit flip":    func(b []byte) []byte { b[len(b)/2] ^= 1; return b },
		"truncation":  func(b []byte) []byte { return b[:len(b)-5] },
		"bad magic":   func(b []byte) []byte { b[0] ^= 0xff; return b },
		"bad version": func(b []byte) []byte { b[8] = 0xee; return b },
	}
	for name, corrupt := range corruptions {
		if err := os.WriteFile(p, corrupt(append([]byte(nil), data...)), 0o644); err != nil {
			t.Fatalf("%s: planting corrupt file: %v", name, err)
		}
		if _, _, err := s.GetSnapshot("sess-corrupt"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: GetSnapshot: %v, want ErrNotFound", name, err)
		}
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("%s: corrupt file was not quarantined", name)
		}
		// Clean quarantined files so the next round plants fresh.
		ents, _ := os.ReadDir(dir)
		for _, e := range ents {
			if strings.HasSuffix(e.Name(), quarantineExt) {
				os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}

	// A snapshot stored under a mismatched id (cross-linked file) is also
	// rejected: copy a valid file to another session's address.
	if err := s.PutSnapshot(meta, []byte("payload")); err != nil {
		t.Fatalf("PutSnapshot (refresh): %v", err)
	}
	data, _ = os.ReadFile(p)
	other := s.snapPath("sess-other")
	if err := os.WriteFile(other, data, 0o644); err != nil {
		t.Fatalf("planting cross-linked file: %v", err)
	}
	if _, _, err := s.GetSnapshot("sess-other"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cross-linked snapshot: %v, want ErrNotFound", err)
	}
}
