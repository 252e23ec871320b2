package serve

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// This file implements request coalescing — the serving half of the batched
// kernels. SweepCoalescer merges concurrent /sweep requests against the same
// (model, grid) into one batched kernel call.
//
// It uses natural batching (group commit): the first request under a key
// executes immediately — an idle server adds no latency window — and
// requests arriving while an execution is in flight queue up and are taken
// as one batch by whichever waiter acquires the execution lock next. Batch
// size adapts to load by itself: idle traffic runs batches of one, a burst
// of N compatible requests collapses into a handful of kernel calls.
//
// A batch of one executes under the requester's context, preserving
// per-request cancellation exactly as before. A shared batch executes
// detached (context.WithoutCancel): one member disconnecting must not abort
// work the other members still want, and the work is bounded by the same
// per-request budgets either way.

// coalesceState is the per-key queue: mu guards
// the ticket list, execMu serializes executors. A waiter blocked on execMu
// either finds its ticket already served by the previous executor, or takes
// everything queued meanwhile and executes the next batch itself.
type coalesceState struct {
	refs   int // guarded by the owning coalescer's map lock
	mu     sync.Mutex
	execMu sync.Mutex
}

// ---- sweep coalescing ----

// sweepKey identifies sweeps that can share one kernel call: same model
// instance, same frequency grid.
type sweepKey struct {
	model      *Model
	wMin, wMax float64
	points     int
}

// sweepTicket is one request's slot in a batch.
type sweepTicket struct {
	entries []Entry
	done    bool
	out     []EntrySweep
	err     error
}

type sweepState struct {
	coalesceState
	tickets []*sweepTicket
}

// SweepCoalescer fronts Evaluator.SweepEntries with per-(model, grid)
// natural batching.
type SweepCoalescer struct {
	ev *Evaluator

	mu   sync.Mutex
	keys map[sweepKey]*sweepState

	// batches counts executed kernel batches; sharedBatches those that
	// served more than one request; sharedRequests the requests served by
	// shared batches. batchSize, when instrumented, records requests per
	// executed batch.
	batches        atomic.Int64
	sharedBatches  atomic.Int64
	sharedRequests atomic.Int64
	batchSize      *obs.Histogram
}

func NewSweepCoalescer(ev *Evaluator) *SweepCoalescer {
	return &SweepCoalescer{ev: ev, keys: make(map[sweepKey]*sweepState)}
}

// Instrument attaches the batch-size histogram.
func (c *SweepCoalescer) Instrument(batchSize *obs.Histogram) { c.batchSize = batchSize }

func (c *SweepCoalescer) acquire(key sweepKey) *sweepState {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.keys[key]
	if st == nil {
		st = &sweepState{}
		c.keys[key] = st
	}
	st.refs++
	return st
}

func (c *SweepCoalescer) release(key sweepKey, st *sweepState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st.refs--
	if st.refs == 0 {
		delete(c.keys, key)
	}
}

// SweepEntries behaves exactly like Evaluator.SweepEntries, but concurrent
// calls for the same model and grid are merged: their entry sets are
// deduplicated into one union and served by a single batched kernel call,
// each caller receiving its own entries in its own order.
func (c *SweepCoalescer) SweepEntries(ctx context.Context, m *Model, entries []Entry, wMin, wMax float64, points int) ([]EntrySweep, error) {
	if len(entries) == 0 {
		return nil, badRequest("no entries requested")
	}
	// Validate per-request entries before joining a batch, so one malformed
	// request cannot fail a batch it shares with well-formed ones. The grid
	// parameters need no such care: they are part of the key, so a bad grid
	// fails only requests asking for that same bad grid.
	for _, e := range entries {
		if e.Row < 0 || e.Row >= m.Outputs || e.Col < 0 || e.Col >= m.Ports {
			return nil, badRequest("entry (%d,%d) out of range %d×%d", e.Row, e.Col, m.Outputs, m.Ports)
		}
	}
	key := sweepKey{model: m, wMin: wMin, wMax: wMax, points: points}
	st := c.acquire(key)
	defer c.release(key, st)

	t := &sweepTicket{entries: entries}
	st.mu.Lock()
	st.tickets = append(st.tickets, t)
	st.mu.Unlock()

	// Yield once between publishing the ticket and contending for the
	// executor lock. Under saturation the executing goroutine and the engine
	// worker otherwise ping-pong through the scheduler's run-next slot and
	// re-acquire the lock before concurrently arriving requests ever run far
	// enough to enqueue — batches of one, no coalescing. One yield moves this
	// goroutine behind those peers, costing well under a microsecond against
	// kernel calls of tens to hundreds of microseconds.
	runtime.Gosched()

	st.execMu.Lock()
	defer st.execMu.Unlock()
	st.mu.Lock()
	if t.done {
		// A previous executor took this ticket into its batch.
		st.mu.Unlock()
		return t.out, t.err
	}
	batch := st.tickets
	st.tickets = nil
	st.mu.Unlock()

	// Union the batch's entries, deduplicated: entries requested by several
	// members are evaluated once.
	var union []Entry
	pos := make(map[Entry]int)
	for _, tk := range batch {
		for _, e := range tk.entries {
			if _, ok := pos[e]; !ok {
				pos[e] = len(union)
				union = append(union, e)
			}
		}
	}
	execCtx := ctx
	if len(batch) > 1 {
		//pgmor:detach a coalesced batch serves many requests; one caller's cancellation must not fail the rest
		execCtx = context.WithoutCancel(ctx)
		c.sharedBatches.Add(1)
		c.sharedRequests.Add(int64(len(batch)))
	}
	c.batches.Add(1)
	if c.batchSize != nil {
		c.batchSize.Observe(float64(len(batch)))
	}
	out, err := c.ev.SweepEntries(execCtx, m, union, wMin, wMax, points)

	st.mu.Lock()
	for _, tk := range batch {
		tk.done = true
		if err != nil {
			tk.err = err
			continue
		}
		tk.out = make([]EntrySweep, len(tk.entries))
		for i, e := range tk.entries {
			tk.out[i] = out[pos[e]]
		}
	}
	st.mu.Unlock()
	return t.out, t.err
}
