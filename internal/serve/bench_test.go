package serve

import (
	"context"
	"testing"
)

// The cold/modal pair documents the evaluation economics: cold pays the
// per-block O(l³) complex LU factorization on every evaluation, and modal —
// the serving path — pays a one-time diagonalization at build and then O(q)
// per evaluation, with no factorization and no solves.

func BenchmarkEvalColdFactorization(b *testing.B) {
	m := testModel(b, 0.25)
	s := complex(0, 1e9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.ROM.Eval(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalModal is BenchmarkEvalColdFactorization on the modal path:
// same ROM, same full-matrix evaluation, no factors.
func BenchmarkEvalModal(b *testing.B) {
	m := testModel(b, 0.25)
	if m.Modal == nil || m.ModalBlocks != m.Blocks {
		b.Fatalf("test model not fully modal (%d/%d blocks)", m.ModalBlocks, m.Blocks)
	}
	s := complex(0, 1e9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Modal.Eval(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalColumnModal measures the single-entry hot path with a
// caller-held buffer — the per-point cost inside a sweep. It is
// allocation-free and performs no triangular solves.
func BenchmarkEvalColumnModal(b *testing.B) {
	m := testModel(b, 0.25)
	if m.Modal == nil {
		b.Fatal("test model has no modal form")
	}
	s := complex(0, 1e9)
	dst := make([]complex128, m.Outputs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Modal.EvalColumnInto(dst, s, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepRepeatedModal measures a full served sweep re-run at an
// identical grid — the serving steady state: one vectorized residue pass.
func BenchmarkSweepRepeatedModal(b *testing.B) {
	m := testModel(b, 0.25)
	eng := NewEngine(0)
	defer eng.Close()
	ev := &Evaluator{eng: eng}
	if m.ModalBlocks != m.Blocks {
		b.Fatalf("test model not fully modal (%d/%d blocks)", m.ModalBlocks, m.Blocks)
	}
	if _, err := ev.SweepEntries(context.Background(), m, []Entry{{Row: 0, Col: 0}}, 1e5, 1e15, 200); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.SweepEntries(context.Background(), m, []Entry{{Row: 0, Col: 0}}, 1e5, 1e15, 200); err != nil {
			b.Fatal(err)
		}
	}
}
