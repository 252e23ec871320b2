package lti

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/cmplx"
	"os"
	"reflect"
	"testing"

	"repro/internal/dense"
)

// FuzzLoadROM feeds arbitrary bytes to the ROM loader, seeded with the
// golden fixtures. The loader must never panic; a ROM it accepts must hold
// only finite values, save and reload equal, and evaluate at one probe
// frequency without panicking.
//
// The content checksum rejects nearly every mutated stream, which would
// hide the structural validation behind it from the fuzzer. So every input
// that gob-decodes is also re-stamped with its correct checksum and loaded
// again. Only streams that carried a valid checksum as fuzzed — the
// fixtures and their equivalents — must also evaluate to finite values: a
// re-stamped stream can carry finite entries extreme enough to overflow.
func FuzzLoadROM(f *testing.F) {
	for _, path := range []string{goldenV1ROMPath, goldenROMPath, goldenModalROMPath} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if bd, ms, err := LoadROM(bytes.NewReader(data)); err == nil {
			checkAcceptedROM(t, bd, ms, true)
		}
		var g gobBlockDiag
		if gob.NewDecoder(bytes.NewReader(data)).Decode(&g) != nil {
			return
		}
		g.Checksum = 0
		g.Checksum = checksumBlockDiag(&g)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&g); err != nil {
			t.Fatalf("re-encoding a decoded stream: %v", err)
		}
		if bd, ms, err := LoadROM(&buf); err == nil {
			checkAcceptedROM(t, bd, ms, false)
		}
	})
}

// checkAcceptedROM holds an accepted ROM to the loader's contract; with
// wantFinite it also requires finite values at the probe frequency.
func checkAcceptedROM(t *testing.T, bd *BlockDiagSystem, ms *ModalSystem, wantFinite bool) {
	t.Helper()
	finite := func(what string, vs []float64) {
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted ROM carries %v in %s", v, what)
			}
		}
	}
	for i := range bd.Blocks {
		b := &bd.Blocks[i]
		finite("C", b.C.Data)
		finite("G", b.G.Data)
		finite("L", b.L.Data)
		finite("B", b.B)
	}
	if ms != nil {
		for i := range ms.Blocks {
			mb := &ms.Blocks[i]
			finite("poles", cplxToFloats(mb.Poles))
			if mb.R != nil {
				finite("residues", cplxToFloats(mb.R.Data))
			}
			finite("direct term", cplxToFloats(mb.D))
		}
	}

	var buf bytes.Buffer
	var err error
	if ms != nil {
		err = SaveModal(&buf, ms)
	} else {
		err = SaveBlockDiag(&buf, bd)
	}
	if err != nil {
		t.Fatalf("accepted ROM does not save: %v", err)
	}
	bd2, ms2, err := LoadROM(&buf)
	if err != nil {
		t.Fatalf("saved ROM does not reload: %v", err)
	}
	if !reflect.DeepEqual(bd, bd2) || !reflect.DeepEqual(ms, ms2) {
		t.Fatal("ROM reloads different from what was saved")
	}

	// A ROM may declare far more ports than its blocks touch; keep the
	// dense P×M result small.
	if bd.P*bd.M > 1<<16 {
		return
	}
	const probe = 1i
	var h *dense.Mat[complex128]
	if ms != nil {
		h, err = ms.Eval(probe)
	} else {
		h, err = bd.Eval(probe)
	}
	if err != nil || !wantFinite {
		return // a pencil singular at the probe is an error, not a bad value
	}
	for r := 0; r < bd.P; r++ {
		for c := 0; c < bd.M; c++ {
			if v := h.At(r, c); cmplx.IsNaN(v) || cmplx.IsInf(v) {
				t.Fatalf("accepted ROM evaluates to %v at s=%v, entry (%d,%d)", v, probe, r, c)
			}
		}
	}
}
