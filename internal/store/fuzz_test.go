package store

import (
	"bytes"
	"crypto/sha256"
	"os"
	"testing"

	"repro/internal/sim"
)

// FuzzDecodeFrame feeds arbitrary bytes to the frame decoder of both file
// kinds, seeded with a ROM file and a session snapshot file as Put and
// PutSnapshot write them. Decoding must never panic, and a frame the decoder
// accepts must re-encode to the identical bytes.
//
// The sha256 trailer rejects nearly every mutated input, which would hide
// the length checks behind it from the fuzzer. So every input long enough
// to carry a digest is also re-stamped with its correct digest and decoded
// again.
func FuzzDecodeFrame(f *testing.F) {
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	ms, err := testROM().Modalize()
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Put(testMeta("m1", "g1"), ms.BD, ms); err != nil {
		f.Fatal(err)
	}
	st, err := sim.NewStepper(ms, sim.StepperOptions{Dt: 0.01})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := st.Advance(5, sim.UniformInput(sim.DC(1))); err != nil {
		f.Fatal(err)
	}
	payload, err := st.Snapshot().MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	if err := s.PutSnapshot(testSnapMeta("sess-1"), payload); err != nil {
		f.Fatal(err)
	}
	for _, p := range []string{s.path("m1", "g1"), s.snapPath("sess-1")} {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFrame(t, data)
		if len(data) >= sha256.Size {
			body := bytes.Clone(data[:len(data)-sha256.Size])
			sum := sha256.Sum256(body)
			checkFrame(t, append(body, sum[:]...))
		}
	})
}

// checkFrame decodes data as each file kind; an accepted frame must
// re-encode to data exactly.
func checkFrame(t *testing.T, data []byte) {
	for _, f := range []frame{romFrame, snapFrame} {
		meta, payload, err := f.decode(data)
		if err != nil {
			continue
		}
		if got := f.encode(meta, payload); !bytes.Equal(got, data) {
			t.Fatalf("accepted %s frame re-encodes to different bytes", f.name)
		}
	}
	decodeFrame[Meta](romFrame, data)
	decodeFrame[SnapshotMeta](snapFrame, data)
}
