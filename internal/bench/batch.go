package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/grid"
	"repro/internal/serve"
	"repro/internal/sim"
)

// BatchResult is the machine-readable record pgbench emits as
// BENCH_batch.json: what fused multi-tenant evaluation buys over per-request
// dispatch. Three contracts in one record:
//
//   - group advance: aggregate steps/sec of N same-model sessions advanced
//     through one fused StepperGroup pass versus independent per-session
//     Advance calls (the ≥3× criterion);
//   - sweep coalescing: aggregate sweep throughput of N concurrent clients
//     merged by the SweepCoalescer into batched packed-kernel calls versus
//     the same clients issuing direct per-request evaluations (the ≥2×
//     criterion);
//   - single-request guard: an uncontended single-entry sweep through the
//     coalescer versus the plain Evaluator — the batching layer must cost
//     nothing when there is nothing to batch (≤5% ns/op, kernel stays at
//     0 allocs/op).
type BatchResult struct {
	Name        string  `json:"name"`
	Benchmark   string  `json:"benchmark"`
	Scale       float64 `json:"scale"`
	Order       int     `json:"order"`
	Blocks      int     `json:"blocks"`
	ModalBlocks int     `json:"modal_blocks"`
	Ports       int     `json:"ports"`
	Outputs     int     `json:"outputs"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`

	// Fused group advance vs independent per-session advance.
	GroupSessions          int     `json:"group_sessions"`
	GroupChunk             int     `json:"group_chunk"`
	IndependentStepsPerSec float64 `json:"independent_steps_per_sec"`
	FusedStepsPerSec       float64 `json:"fused_steps_per_sec"`
	GroupSpeedup           float64 `json:"group_speedup"`

	// Coalesced vs direct concurrent sweeps.
	SweepClients          int     `json:"sweep_clients"`
	SweepPoints           int     `json:"sweep_points"`
	DirectSweepsPerSec    float64 `json:"direct_sweeps_per_sec"`
	CoalescedSweepsPerSec float64 `json:"coalesced_sweeps_per_sec"`
	SweepSpeedup          float64 `json:"sweep_speedup"`

	// Uncontended single-request path through the coalescer.
	SingleDirectNs    float64 `json:"single_direct_ns"`
	SingleCoalescedNs float64 `json:"single_coalesced_ns"`
	SingleOverheadPct float64 `json:"single_overhead_pct"`
	// KernelAllocsPerOp is the warm single-entry modal sweep kernel's
	// allocs/op — the 0 allocs/op contract restated under the batching layer.
	KernelAllocsPerOp int64 `json:"kernel_allocs_per_op"`
}

// batchSessions, batchChunk, and batchClients shape the experiment; variables
// so the test harness can shrink them.
var (
	batchSessions = 256
	batchChunk    = 64
	batchClients  = 64
)

// Batch measures the fused multi-tenant evaluation paths on one reduced
// model: StepperGroup advance fusion across many same-model sessions, and
// SweepCoalescer request batching across many concurrent sweep clients.
func Batch(cfg Config) (*BatchResult, error) {
	cfg.defaults()
	const name = grid.Ckt1
	sys, _, err := buildSystem(name, cfg.Scale)
	if err != nil {
		return nil, err
	}
	sr, rom := runBDSM(sys, grid.MatchedMoments(name), cfg.Workers)
	if sr.Err != nil {
		return nil, sr.Err
	}
	ms, err := rom.Modalize()
	if err != nil {
		return nil, fmt.Errorf("bench: modalize: %w", err)
	}
	modalBlocks, _ := ms.ModalCount()
	order, m, p := rom.Dims()

	out := &BatchResult{
		Name:        "batch",
		Benchmark:   name,
		Scale:       cfg.Scale,
		Order:       order,
		Blocks:      len(rom.Blocks),
		ModalBlocks: modalBlocks,
		Ports:       m,
		Outputs:     p,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),

		GroupSessions: batchSessions,
		GroupChunk:    batchChunk,
		SweepClients:  batchClients,
		SweepPoints:   300,
	}

	// ---- fused group advance vs independent per-session advance ----

	const dt = 1e-11
	input := sim.Sine{Amplitude: 1e-3, Freq: 1e9}
	mkSessions := func() ([]*sim.Stepper, []sim.Input, error) {
		sts := make([]*sim.Stepper, batchSessions)
		inputs := make([]sim.Input, batchSessions)
		for i := range sts {
			st, err := sim.NewStepper(ms, sim.StepperOptions{Dt: dt})
			if err != nil {
				return nil, nil, err
			}
			sts[i] = st
			inputs[i] = sim.UniformInput(input)
		}
		return sts, inputs, nil
	}

	sts, inputs, err := mkSessions()
	if err != nil {
		return nil, err
	}
	indep := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for s := range sts {
				if _, err := sts[s].Advance(batchChunk, inputs[s]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	if secs := indep.T.Seconds(); secs > 0 {
		out.IndependentStepsPerSec = float64(batchSessions*batchChunk*indep.N) / secs
	}

	sts, inputs, err = mkSessions()
	if err != nil {
		return nil, err
	}
	g, err := sim.NewStepperGroup(sts, sim.GroupOptions{})
	if err != nil {
		return nil, err
	}
	fused := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := g.Advance(batchChunk, inputs); err != nil {
				b.Fatal(err)
			}
		}
	})
	if secs := fused.T.Seconds(); secs > 0 {
		out.FusedStepsPerSec = float64(batchSessions*batchChunk*fused.N) / secs
	}
	if out.IndependentStepsPerSec > 0 {
		out.GroupSpeedup = out.FusedStepsPerSec / out.IndependentStepsPerSec
	}

	// ---- coalesced vs direct concurrent sweeps ----

	nodes, _, _ := sys.Dims()
	model := &serve.Model{
		ID: "batchbench", Nodes: nodes, Ports: m, Outputs: p,
		Order: order, Blocks: len(rom.Blocks), ModalBlocks: modalBlocks,
		ROM: rom, Modal: ms, Packed: ms.Pack(),
	}
	eng := serve.NewEngine(cfg.Workers)
	defer eng.Close()
	ev := serve.NewEvaluator(eng, nil, true)
	coal := serve.NewSweepCoalescer(ev)
	ctx := context.Background()

	// Every client polls its own transfer-function entry on the shared
	// default grid — the multi-tenant dashboard shape. Entries are assigned
	// round-robin so the coalesced union is (up to) Outputs×Ports distinct
	// entries per batch, not one deduplicated entry; the speedup measured is
	// kernel batching, not request dedup.
	entryFor := func(i int) serve.Entry {
		return serve.Entry{Row: i % p, Col: (i / p) % m}
	}
	const wMin, wMax = 1e5, 1e15
	points := out.SweepPoints

	concurrent := func(sweep func(e serve.Entry) error) *testing.BenchmarkResult {
		var next atomic.Int64
		res := testing.Benchmark(func(b *testing.B) {
			b.SetParallelism((batchClients + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
			b.RunParallel(func(pb *testing.PB) {
				e := entryFor(int(next.Add(1) - 1))
				for pb.Next() {
					if err := sweep(e); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
		return &res
	}

	direct := concurrent(func(e serve.Entry) error {
		_, err := ev.SweepEntries(ctx, model, []serve.Entry{e}, wMin, wMax, points)
		return err
	})
	if secs := direct.T.Seconds(); secs > 0 {
		out.DirectSweepsPerSec = float64(direct.N) / secs
	}
	coalesced := concurrent(func(e serve.Entry) error {
		_, err := coal.SweepEntries(ctx, model, []serve.Entry{e}, wMin, wMax, points)
		return err
	})
	if secs := coalesced.T.Seconds(); secs > 0 {
		out.CoalescedSweepsPerSec = float64(coalesced.N) / secs
	}
	if out.DirectSweepsPerSec > 0 {
		out.SweepSpeedup = out.CoalescedSweepsPerSec / out.DirectSweepsPerSec
	}

	// ---- uncontended single-request guard ----

	single := obsPair("single_sweep",
		func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ev.SweepEntries(ctx, model, []serve.Entry{{Row: 0, Col: 0}}, wMin, wMax, points); err != nil {
					b.Fatal(err)
				}
			}
		},
		func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := coal.SweepEntries(ctx, model, []serve.Entry{{Row: 0, Col: 0}}, wMin, wMax, points); err != nil {
					b.Fatal(err)
				}
			}
		})
	out.SingleDirectNs = single.Baseline.NsPerOp
	out.SingleCoalescedNs = single.Instrumented.NsPerOp
	out.SingleOverheadPct = single.OverheadPct

	omegas, err := sim.LogGrid(wMin, wMax, points)
	if err != nil {
		return nil, err
	}
	dst := make([]complex128, points)
	kernel := runObsBench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := ms.SweepEntryInto(dst, 0, 0, omegas); err != nil {
				b.Fatal(err)
			}
		}
	})
	out.KernelAllocsPerOp = kernel.AllocsPerOp

	return out, nil
}

// Render prints the batched-evaluation table.
func (r *BatchResult) Render(w io.Writer) {
	line(w, "%s @ scale %g: order %d, %d blocks (%d modal), %d ports × %d outputs, GOMAXPROCS %d",
		r.Benchmark, r.Scale, r.Order, r.Blocks, r.ModalBlocks, r.Ports, r.Outputs, r.GoMaxProcs)
	line(w, "group advance, %d sessions × %d-step chunks:", r.GroupSessions, r.GroupChunk)
	line(w, "  independent %10.0f steps/s", r.IndependentStepsPerSec)
	line(w, "  fused       %10.0f steps/s   %.2f×", r.FusedStepsPerSec, r.GroupSpeedup)
	line(w, "concurrent sweeps, %d clients × %d-point grids:", r.SweepClients, r.SweepPoints)
	line(w, "  direct      %10.1f sweeps/s", r.DirectSweepsPerSec)
	line(w, "  coalesced   %10.1f sweeps/s   %.2f×", r.CoalescedSweepsPerSec, r.SweepSpeedup)
	line(w, "uncontended single sweep: direct %.0f ns, coalesced %.0f ns (%+.2f%%); kernel %d allocs/op",
		r.SingleDirectNs, r.SingleCoalescedNs, r.SingleOverheadPct, r.KernelAllocsPerOp)
}

// CheckSpeedups fails unless fused group advance beats independent
// per-session advance and coalesced sweeps beat direct per-request sweeps.
// It is a timing threshold, so it gates the record-scale bench run
// (pgbench -exp batch), not go test, where a small shared host can measure
// either ratio just under 1×.
func (r *BatchResult) CheckSpeedups() error {
	if r.GroupSpeedup <= 1 {
		return fmt.Errorf("fused group advance %.2f× independent, want >1×", r.GroupSpeedup)
	}
	if r.SweepSpeedup <= 1 {
		return fmt.Errorf("coalesced sweeps %.2f× direct, want >1×", r.SweepSpeedup)
	}
	return nil
}

// WriteJSON writes the machine-readable record (BENCH_batch.json).
func (r *BatchResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
