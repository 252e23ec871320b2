package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op (the
// root span's ID); Parent is the span that caused this one (0 for a root).
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Op     int64         `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Self   time.Duration `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	nextID int64
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// id reserves a span ID, so a parent can be named before it is recorded.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// add records a completed span under a reserved (or fresh, when id is 0) ID.
func (t *tracer) add(id, parent, op int64, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.id()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.origin), End: end.Sub(t.origin)})
	return id
}

// finish computes every span's self time: its duration minus the part of its
// interval that its children cover.
func (t *tracer) finish() {
	children := make(map[int64][][2]time.Duration)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.End - s.Start - covered(children[s.ID], s.Start, s.End)
	}
}

// covered returns the length of the union of intervals, clipped to [lo, hi].
func covered(iv [][2]time.Duration, lo, hi time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// selfTimes returns the self times of every span with the given name.
func (t *tracer) selfTimes(name string) samples {
	var out samples
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.Self)
		}
	}
	return out
}

// perOp returns, for each operation that has spans of the given name, the
// summed duration of those spans.
func (t *tracer) perOp(name string) samples {
	sums := make(map[int64]time.Duration)
	var ops []int64
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		if _, ok := sums[s.Op]; !ok {
			ops = append(ops, s.Op)
		}
		sums[s.Op] += s.End - s.Start
	}
	out := make(samples, len(ops))
	for i, op := range ops {
		out[i] = sums[op]
	}
	return out
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing trace file: %w", err)
	}
	return nil
}
