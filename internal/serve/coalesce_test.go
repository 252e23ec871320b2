package serve

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

// sameSweepPoint compares two sweep samples to relative tolerance: a request
// coalesced into a shared batch may be served by the packed kernel while its
// uncoalesced baseline ran scalar, and the two kernels differ in the last
// ulps (shared reciprocal vs direct division).
func sameSweepPoint(a, b SweepPoint) bool {
	const tol = 1e-12
	close := func(x, y float64) bool {
		scale := math.Max(math.Abs(x), math.Abs(y))
		return math.Abs(x-y) <= tol*math.Max(scale, 1)
	}
	return a.Omega == b.Omega && close(a.Re, b.Re) && close(a.Im, b.Im) && close(a.Mag, b.Mag)
}

// coalesceFixture builds a modal-capable model plus an evaluator over an
// engine sized like a small server.
func coalesceFixture(t testing.TB) (*Model, *Evaluator) {
	t.Helper()
	m, err := buildModel(ModelKey{Benchmark: "ckt1", Scale: 0.1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(4)
	t.Cleanup(eng.Close)
	return m, &Evaluator{eng: eng}
}

// TestSweepCoalescerPassThrough: an uncontended request behaves exactly like
// calling the evaluator directly, and malformed requests fail fast without
// executing a batch.
func TestSweepCoalescerPassThrough(t *testing.T) {
	m, ev := coalesceFixture(t)
	c := NewSweepCoalescer(ev)
	entries := []Entry{{0, 0}, {1, 2}, {0, 0}} // duplicates preserved
	const points = 16

	want, err := ev.SweepEntries(context.Background(), m, entries, DefaultWMin, DefaultWMax, points)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.SweepEntries(context.Background(), m, entries, DefaultWMin, DefaultWMax, points)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d entry sweeps, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Row != want[i].Row || got[i].Col != want[i].Col {
			t.Fatalf("entry %d = (%d,%d), want (%d,%d)", i, got[i].Row, got[i].Col, want[i].Row, want[i].Col)
		}
		for k := range got[i].Points {
			if got[i].Points[k] != want[i].Points[k] {
				t.Fatalf("entry %d point %d diverged", i, k)
			}
		}
	}
	if n := c.batches.Load(); n != 1 {
		t.Fatalf("batches = %d, want 1", n)
	}
	if n := c.sharedBatches.Load(); n != 0 {
		t.Fatalf("sharedBatches = %d, want 0", n)
	}

	if _, err := c.SweepEntries(context.Background(), m, nil, DefaultWMin, DefaultWMax, points); err == nil {
		t.Error("empty entry list accepted")
	}
	if _, err := c.SweepEntries(context.Background(), m, []Entry{{-1, 0}}, DefaultWMin, DefaultWMax, points); err == nil {
		t.Error("out-of-range entry accepted")
	}
	var httpErr *httpError
	_, err = c.SweepEntries(context.Background(), m, []Entry{{0, 99}}, DefaultWMin, DefaultWMax, points)
	if !errors.As(err, &httpErr) || httpErr.code != 400 {
		t.Errorf("out-of-range entry produced %v, want a 400", err)
	}
	if n := c.batches.Load(); n != 1 {
		t.Fatalf("invalid requests executed batches: batches = %d, want 1", n)
	}
	if len(c.keys) != 0 {
		t.Fatalf("%d key states leaked", len(c.keys))
	}
}

// TestSweepCoalescerSharedBatch forces a deterministic shared batch: the
// executor lock is held while N requests queue up, so releasing it makes one
// request execute all N in a single kernel call, each caller receiving its
// own entries in its own order.
func TestSweepCoalescerSharedBatch(t *testing.T) {
	m, ev := coalesceFixture(t)
	c := NewSweepCoalescer(ev)
	const points = 12
	reqs := [][]Entry{
		{{0, 0}, {1, 1}},
		{{1, 1}, {2, 2}, {0, 0}},
		{{3, 3}},
		{{0, 0}},
	}
	want := make([][]EntrySweep, len(reqs))
	for i, entries := range reqs {
		w, err := ev.SweepEntries(context.Background(), m, entries, DefaultWMin, DefaultWMax, points)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}
	kernelBefore := ev.BatchKernelCalls()

	key := sweepKey{model: m, wMin: DefaultWMin, wMax: DefaultWMax, points: points}
	st := c.acquire(key)
	st.execMu.Lock()

	got := make([][]EntrySweep, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, entries := range reqs {
		wg.Add(1)
		go func(i int, entries []Entry) {
			defer wg.Done()
			got[i], errs[i] = c.SweepEntries(context.Background(), m, entries, DefaultWMin, DefaultWMax, points)
		}(i, entries)
	}
	// Wait for every request to enqueue its ticket, then open the gate.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st.mu.Lock()
		n := len(st.tickets)
		st.mu.Unlock()
		if n == len(reqs) {
			break
		}
		if time.Now().After(deadline) {
			st.execMu.Unlock()
			t.Fatalf("only %d/%d tickets queued", n, len(reqs))
		}
		time.Sleep(time.Millisecond)
	}
	st.execMu.Unlock()
	wg.Wait()
	c.release(key, st)

	for i := range reqs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if len(got[i]) != len(want[i]) {
			t.Fatalf("request %d: %d sweeps, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if got[i][j].Row != want[i][j].Row || got[i][j].Col != want[i][j].Col {
				t.Fatalf("request %d entry %d misprojected", i, j)
			}
			for k := range got[i][j].Points {
				if !sameSweepPoint(got[i][j].Points[k], want[i][j].Points[k]) {
					t.Fatalf("request %d entry %d point %d diverged", i, j, k)
				}
			}
		}
	}
	if n := c.batches.Load(); n != 1 {
		t.Fatalf("batches = %d, want 1", n)
	}
	if n := c.sharedBatches.Load(); n != 1 {
		t.Fatalf("sharedBatches = %d, want 1", n)
	}
	if n := c.sharedRequests.Load(); n != int64(len(reqs)) {
		t.Fatalf("sharedRequests = %d, want %d", n, len(reqs))
	}
	// The union has several entries, so the shared batch must have gone
	// through the packed kernel.
	if ev.BatchKernelCalls() == kernelBefore {
		t.Error("shared batch did not use the batched kernel")
	}
	if len(c.keys) != 0 {
		t.Fatalf("%d key states leaked", len(c.keys))
	}
}

// TestCoalesceStress hammers the sweep coalescer from many goroutines with
// -race in CI: overlapping sweep entry sets against one (model, grid) key.
// Every result is cross-checked against an uncoalesced baseline, so a batch
// that merges or projects wrongly fails even when the race detector stays
// quiet.
func TestCoalesceStress(t *testing.T) {
	m, ev := coalesceFixture(t)
	sweeps := NewSweepCoalescer(ev)
	const points = 10

	entrySets := [][]Entry{
		{{0, 0}},
		{{0, 0}, {1, 1}},
		{{2, 2}, {0, 0}, {3, 3}},
		{{1, 0}, {0, 1}},
	}
	wantSweeps := make([][]EntrySweep, len(entrySets))
	for i, entries := range entrySets {
		w, err := ev.SweepEntries(context.Background(), m, entries, DefaultWMin, DefaultWMax, points)
		if err != nil {
			t.Fatal(err)
		}
		wantSweeps[i] = w
	}

	const goroutines = 8
	const rounds = 5
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				entries := entrySets[(g+r)%len(entrySets)]
				got, err := sweeps.SweepEntries(context.Background(), m, entries, DefaultWMin, DefaultWMax, points)
				if err != nil {
					t.Error(err)
					return
				}
				want := wantSweeps[(g+r)%len(entrySets)]
				for i := range got {
					for k := range got[i].Points {
						if !sameSweepPoint(got[i].Points[k], want[i].Points[k]) {
							t.Errorf("goroutine %d round %d: sweep entry %d point %d diverged", g, r, i, k)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()

	if sweeps.batches.Load() == 0 {
		t.Fatal("no sweep batches recorded")
	}
	if len(sweeps.keys) != 0 {
		t.Fatalf("%d key states leaked", len(sweeps.keys))
	}
}
