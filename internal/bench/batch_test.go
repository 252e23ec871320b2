package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestBatchRecord runs the fused-evaluation benchmark harness at a small
// scale and checks the record's structure: both comparisons measured, the
// speedup ratios written and round-tripped, and the single-request path
// allocation free. The >1× speedup thresholds are timing claims and live in
// BatchResult.CheckSpeedups, which pgbench -exp batch enforces.
func TestBatchRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("runs micro-benchmarks")
	}
	defer func(s, c, cl int) { batchSessions, batchChunk, batchClients = s, c, cl }(batchSessions, batchChunk, batchClients)
	batchSessions = 32
	batchChunk = 32
	batchClients = 8

	res, err := Batch(Config{Scale: 0.1})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if res.IndependentStepsPerSec <= 0 || res.FusedStepsPerSec <= 0 {
		t.Fatalf("empty group-advance measurement: %+v", res)
	}
	if res.DirectSweepsPerSec <= 0 || res.CoalescedSweepsPerSec <= 0 {
		t.Fatalf("empty sweep measurement: %+v", res)
	}
	if res.KernelAllocsPerOp != 0 {
		t.Errorf("warm sweep kernel allocates %d/op, want 0", res.KernelAllocsPerOp)
	}

	path := filepath.Join(t.TempDir(), "BENCH_batch.json")
	if err := res.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back BatchResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("record is not valid JSON: %v", err)
	}
	if back.GroupSpeedup != res.GroupSpeedup || back.SweepSpeedup != res.SweepSpeedup {
		t.Fatal("record round-trip lost a speedup ratio")
	}
	if res.GroupSpeedup <= 0 || res.SweepSpeedup <= 0 {
		t.Fatalf("speedup ratios not recorded: group %g, sweep %g", res.GroupSpeedup, res.SweepSpeedup)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("Render produced nothing")
	}
}
