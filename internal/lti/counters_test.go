package lti

import (
	"testing"
)

// demoteBlock strips block i's modal form, forcing every evaluation that
// touches it onto the LU fallback path — the partially-modal shape the
// telemetry attribution bug misbooked (modal_evals inflated, factored_evals
// undercounted).
func demoteBlock(ms *ModalSystem, i int) {
	ms.Blocks[i] = ModalBlock{Input: ms.BD.Blocks[i].Input}
}

// TestCountersFallbackAttribution pins the per-(block, frequency) counter
// semantics on a partially modal system: one modal block on input 0, one
// forced-fallback block on input 1. Every path — column eval, full-matrix
// eval, entry sweep — must attribute each block to the path that actually
// evaluated it, and modal + factored must sum exactly to the block
// evaluations performed.
func TestCountersFallbackAttribution(t *testing.T) {
	bd := rcBlockDiag()
	ms, err := bd.Modalize()
	if err != nil {
		t.Fatal(err)
	}
	demoteBlock(ms, 1)
	if err := ms.Validate(); err != nil {
		t.Fatalf("demoted system invalid: %v", err)
	}
	if modal, fb := ms.ModalCount(); modal != 1 || fb != 1 {
		t.Fatalf("ModalCount = (%d, %d), want (1, 1)", modal, fb)
	}

	s := complex(0, 3)
	dst := make([]complex128, bd.P)

	// Column 0 is covered by the modal block alone.
	ResetCounters()
	if err := ms.EvalColumnInto(dst, s, 0); err != nil {
		t.Fatal(err)
	}
	c := Counters()
	if c.ModalEvals != 1 || c.FactoredEvals != 0 {
		t.Errorf("modal column: (modal, factored) = (%d, %d), want (1, 0)", c.ModalEvals, c.FactoredEvals)
	}

	// Column 1 is served entirely by the LU fallback: it must count as a
	// factored eval, not a modal one.
	ResetCounters()
	if err := ms.EvalColumnInto(dst, s, 1); err != nil {
		t.Fatal(err)
	}
	c = Counters()
	if c.ModalEvals != 0 || c.FactoredEvals != 1 {
		t.Errorf("fallback column: (modal, factored) = (%d, %d), want (0, 1)", c.ModalEvals, c.FactoredEvals)
	}
	if c.Factorizations != 1 {
		t.Errorf("fallback column: Factorizations = %d, want 1", c.Factorizations)
	}

	// A full-matrix eval splits: one block modal, one factored.
	ResetCounters()
	if _, err := ms.Eval(s); err != nil {
		t.Fatal(err)
	}
	c = Counters()
	if c.ModalEvals != 1 || c.FactoredEvals != 1 {
		t.Errorf("full eval: (modal, factored) = (%d, %d), want (1, 1)", c.ModalEvals, c.FactoredEvals)
	}
	if got, want := c.ModalEvals+c.FactoredEvals, int64(len(bd.Blocks)); got != want {
		t.Errorf("full eval: counters sum to %d block evaluations, want %d", got, want)
	}

	// Sweeps count per (block, frequency): a fallback-column sweep is all
	// factored, a modal-column sweep all modal — never both, never inflated.
	omegas := logOmegas(1e-2, 1e2, 7)
	sw := make([]complex128, len(omegas))
	ResetCounters()
	if err := ms.SweepEntryInto(sw, 0, 1, omegas); err != nil {
		t.Fatal(err)
	}
	c = Counters()
	if c.ModalEvals != 0 || c.FactoredEvals != int64(len(omegas)) {
		t.Errorf("fallback sweep: (modal, factored) = (%d, %d), want (0, %d)", c.ModalEvals, c.FactoredEvals, len(omegas))
	}
	ResetCounters()
	if err := ms.SweepEntryInto(sw, 0, 0, omegas); err != nil {
		t.Fatal(err)
	}
	c = Counters()
	if c.ModalEvals != int64(len(omegas)) || c.FactoredEvals != 0 {
		t.Errorf("modal sweep: (modal, factored) = (%d, %d), want (%d, 0)", c.ModalEvals, c.FactoredEvals, len(omegas))
	}

	// The demoted system must still evaluate exactly like the source.
	checkModalAgrees(t, bd, ms, logOmegas(1e-2, 1e2, 9), 1e-10)
}

// TestCountersFactoredColumnPerBlock pins the LU evaluation counters to the
// same per-block unit: a column evaluation counts the blocks it actually
// factored and solved, a full-matrix evaluation counts every block.
func TestCountersFactoredColumnPerBlock(t *testing.T) {
	bd := rcBlockDiag()
	s := complex(0, 2)

	ResetCounters()
	if _, err := bd.EvalColumn(s, 0); err != nil {
		t.Fatal(err)
	}
	if c := Counters(); c.FactoredEvals != 1 || c.Factorizations != 1 {
		t.Errorf("column 0 evaluates one block, (Factorizations, FactoredEvals) = (%d, %d)", c.Factorizations, c.FactoredEvals)
	}

	ResetCounters()
	if _, err := bd.Eval(s); err != nil {
		t.Fatal(err)
	}
	if c, n := Counters(), int64(len(bd.Blocks)); c.FactoredEvals != n || c.Factorizations != n {
		t.Errorf("full eval evaluates %d blocks, (Factorizations, FactoredEvals) = (%d, %d)", n, c.Factorizations, c.FactoredEvals)
	}
}
