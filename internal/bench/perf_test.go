package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestPerfRecord runs the evaluation-path benchmark harness at the record
// scale and checks the machine-readable record carries the fields the
// benchmark trajectory (and the acceptance criteria) depend on.
func TestPerfRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("runs micro-benchmarks")
	}
	// Scale 0.25, the BENCH_modal.json scale, where the sweep ratio is
	// ~10×. At 0.1 (5 ports) it measures 5.0–5.6×, too close to the
	// threshold for a timing check.
	res, err := Perf(Config{Scale: 0.25})
	if err != nil {
		t.Fatalf("Perf: %v", err)
	}
	if res.ModalBlocks != res.Blocks {
		t.Fatalf("perf model not fully modal: %d/%d", res.ModalBlocks, res.Blocks)
	}
	want := map[string]bool{
		"EvalColdFactorization": false, "EvalCachedLU": false, "EvalModal": false,
		"EvalColumnCachedLU": false, "EvalColumnModal": false,
		"SweepCachedLU": false, "SweepModal": false,
	}
	for _, r := range res.Results {
		if _, ok := want[r.Name]; !ok {
			t.Errorf("unexpected benchmark %q", r.Name)
			continue
		}
		want[r.Name] = true
		if r.NsPerOp <= 0 || r.N <= 0 {
			t.Errorf("%s: empty measurement %+v", r.Name, r)
		}
		switch r.Name {
		case "EvalColdFactorization":
			if r.FactorizationsPerOp == 0 {
				t.Errorf("cold eval reports no factorizations")
			}
		case "EvalColumnModal", "SweepModal":
			if r.AllocsPerOp != 0 {
				t.Errorf("%s allocates %d/op, want 0", r.Name, r.AllocsPerOp)
			}
			if r.FactorizationsPerOp != 0 || r.ModalEvalsPerOp == 0 {
				t.Errorf("%s telemetry wrong: %+v", r.Name, r)
			}
		case "EvalColumnCachedLU", "SweepCachedLU":
			if r.AllocsPerOp != 0 {
				t.Errorf("%s allocates %d/op, want 0", r.Name, r.AllocsPerOp)
			}
			if r.FactoredEvalsPerOp == 0 {
				t.Errorf("%s telemetry wrong: %+v", r.Name, r)
			}
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("benchmark %q missing from record", name)
		}
	}
	// The acceptance ratio: a warm sweep must beat the held-LU path by ≥5×
	// (one vectorized residue pass vs 60 LU applications).
	if res.SpeedupSweepModalVsCached < 5 {
		t.Errorf("sweep speedup %.1f× < 5×", res.SpeedupSweepModalVsCached)
	}

	path := filepath.Join(t.TempDir(), "BENCH_modal.json")
	if err := res.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back PerfResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("record is not valid JSON: %v", err)
	}
	if len(back.Results) != len(res.Results) {
		t.Fatalf("record round-trip lost results")
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("Render produced nothing")
	}
}
