package sim

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalStepperState feeds arbitrary bytes to the session-state
// decoder. It must never panic, and any input it accepts must re-marshal to
// the identical bytes: the frame has one encoding per state, so an accepted
// input that encodes differently was decoded into something it did not say.
// Seeds are a modal and an implicit-block stepper state plus truncations of
// each.
func FuzzUnmarshalStepperState(f *testing.F) {
	bd, ms := modalTestSystem(f)
	input := UniformInput(Sine{Amplitude: 1, Freq: 0.5})
	modal, err := NewStepper(ms, StepperOptions{Dt: 0.01})
	if err != nil {
		f.Fatal(err)
	}
	implicit, err := NewImplicitStepper(bd, StepperOptions{Dt: 0.01})
	if err != nil {
		f.Fatal(err)
	}
	for _, st := range []*Stepper{modal, implicit} {
		if _, err := st.Advance(5, input); err != nil {
			f.Fatal(err)
		}
		data, err := st.Snapshot().MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		for _, n := range []int{0, 4, 6, 14, 18, 19, 23, len(data) - 1} {
			f.Add(data[:n])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := UnmarshalStepperState(data)
		if err != nil {
			return
		}
		again, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted state does not re-marshal: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted %d bytes re-marshal to %d different bytes", len(data), len(again))
		}
	})
}
