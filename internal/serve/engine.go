package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Engine is the shared fixed-size worker pool that batched evaluations fan
// out on. One pool serves every request, so total evaluation concurrency is
// bounded by the worker count regardless of how many HTTP requests are in
// flight — requests queue at the task level, not the goroutine level.
type Engine struct {
	tasks     chan func()
	done      chan struct{}
	wg        sync.WaitGroup
	workers   int
	closeOnce sync.Once

	// queued tracks tasks submitted but not yet picked up by a worker — the
	// queue-depth gauge. completed and skipped are lifetime totals; skipped
	// counts tasks abandoned by context cancellation before running.
	queued    atomic.Int64
	completed atomic.Int64
	skipped   atomic.Int64

	// waitHist / runHist, when set via Instrument, receive per-task
	// queue-wait and run durations. Both nil by default so uninstrumented
	// engines (library use, benchmarks) never call time.Now per task.
	waitHist *obs.Histogram
	runHist  *obs.Histogram
}

// NewEngine starts a pool of the given size; workers <= 0 selects
// runtime.NumCPU().
func NewEngine(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	e := &Engine{tasks: make(chan func()), done: make(chan struct{}), workers: workers}
	for i := 0; i < workers; i++ {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			for {
				select {
				case f := <-e.tasks:
					f()
				case <-e.done:
					return
				}
			}
		}()
	}
	return e
}

// Instrument attaches task wait-time and run-time histograms. Must be called
// before the engine receives work: the histogram fields are read without
// synchronization on the task path.
func (e *Engine) Instrument(wait, run *obs.Histogram) {
	e.waitHist = wait
	e.runHist = run
}

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.workers }

// QueueDepth reports tasks submitted but not yet started.
func (e *Engine) QueueDepth() int64 { return e.queued.Load() }

// TaskCounts reports lifetime completed and skipped (canceled before
// running) task totals.
func (e *Engine) TaskCounts() (completed, skipped int64) {
	return e.completed.Load(), e.skipped.Load()
}

// Close stops the pool. Safe to call with MapCtx calls still in flight (a
// graceful HTTP shutdown that timed out may leave handlers running): their
// remaining tasks fall back to the submitting goroutine, so every call still
// completes.
func (e *Engine) Close() {
	e.closeOnce.Do(func() { close(e.done) })
	e.wg.Wait()
}

// submit hands f to a pool worker, or runs it on the calling goroutine if
// the pool is shutting down.
func (e *Engine) submit(f func()) {
	select {
	case e.tasks <- f:
	case <-e.done:
		f()
	}
}

// MapCtx runs fn(0..n-1) across the pool and blocks until every call
// returns; the first error (by completion order) is returned. It must not be
// called from inside a pool task — that would deadlock a fully-loaded pool.
// Cancellation is cooperative: tasks that have not started when ctx is
// canceled are skipped (they still occupy the queue, but return immediately
// when a worker picks them up), so a disconnected client's remaining work
// drains in O(queue) channel operations instead of running every evaluation
// to completion. A task already inside fn finishes — fn should check ctx
// itself between chunks when its own work is long. When any task was skipped
// and no harder error occurred, the context's error is returned.
func (e *Engine) MapCtx(ctx context.Context, n int, fn func(i int) error) error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	var skipped bool
	done := ctx.Done()
	// One timestamp for the whole batch, taken only when timing is on: tasks
	// submitted together share their enqueue instant, so the wait histogram
	// costs one time.Now per MapCtx call, not per task.
	instrumented := e.waitHist != nil || e.runHist != nil
	var enqueued time.Time
	if instrumented {
		enqueued = time.Now()
	}
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		e.queued.Add(1)
		e.submit(func() {
			defer wg.Done()
			e.queued.Add(-1)
			// One clock read serves both histograms: the instant a worker
			// picks the task up ends its queue wait and starts its run.
			var start time.Time
			if instrumented {
				start = time.Now()
			}
			if e.waitHist != nil {
				e.waitHist.Observe(start.Sub(enqueued).Seconds())
			}
			// A panicking task must not kill the shared worker (and with
			// it the process); surface it as this call's error instead.
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("serve: task %d panicked: %v", i, r)
					}
					mu.Unlock()
				}
			}()
			if done != nil {
				select {
				case <-done:
					e.skipped.Add(1)
					mu.Lock()
					skipped = true
					mu.Unlock()
					return
				default:
				}
			}
			err := fn(i)
			if e.runHist != nil {
				e.runHist.ObserveSince(start)
			}
			e.completed.Add(1)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		})
	}
	wg.Wait()
	if firstErr == nil && skipped {
		firstErr = context.Cause(ctx)
	}
	return firstErr
}
