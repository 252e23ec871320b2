// Package obs is the serving fleet's observability core: a dependency-free
// metrics library (atomic counters, gauges, and fixed-bucket histograms with
// a Prometheus-text-format exporter) plus request-scoped tracing (request
// IDs carried in context.Context and attached to logs and error responses).
//
// Design constraints, in priority order:
//
//   - Recording must be safe on the evaluation hot path: every instrument is
//     lock-free (atomic adds; the histogram sum is a CAS loop on float bits)
//     and allocation-free, so instrumenting the modal sweep kernel keeps it
//     at 0 allocs/op.
//   - Nil instruments record nothing: every method tolerates a nil receiver,
//     so a component can be constructed uninstrumented (tests, benchmarks,
//     library use) and share the exact serving code path.
//   - Scrapes never block recorders: the exporter reads atomics and takes
//     only the short registry/vector map locks, so a scrape concurrent with
//     heavy recording observes a merely-approximate cut, not a pause.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
//
//pgmor:noalloc
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n; negative deltas are ignored (counters are monotone).
//
//pgmor:noalloc
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic value that can move in both directions.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
//
//pgmor:noalloc
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by n (negative allowed).
//
//pgmor:noalloc
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value reads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket cumulative histogram. Observations are
// lock-free: each bucket is an atomic counter (recorded non-cumulatively;
// the exporter accumulates), the total count an atomic add, and the sum a
// compare-and-swap loop over float64 bits. The bucket bound slice is
// immutable after construction, so Observe never allocates or locks.
type Histogram struct {
	bounds  []float64      // ascending upper bounds; +Inf is implicit
	counts  []atomic.Int64 // len(bounds)+1, last is the overflow (+Inf) bucket
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// Observe records one value.
//
//pgmor:noalloc
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Latency-shaped data lands in the low buckets almost always, so a
	// forward linear scan beats binary search on the hot path.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		newV := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(newV)) {
			return
		}
	}
}

// ObserveSince records the elapsed seconds since t0 — the common shape of a
// duration histogram sample.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h != nil {
		h.Observe(time.Since(t0).Seconds())
	}
}

// Sum reads the running sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// ExpBuckets returns n ascending bucket bounds starting at start, each
// factor× the previous — the standard way to cover several latency decades
// with a fixed bucket count.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n ≥ 1")
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// metricKind is the exported TYPE of a family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// sample is one exportable series: exactly one of the value sources is set.
type sample struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
	fnInt       func() int64
	fnFloat     func() float64
}

// family is one metric name: its metadata plus every labeled child.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string
	bounds []float64 // histogram families share one bucket layout

	mu       sync.Mutex
	children map[string]*sample // key: label values joined by \xff
}

// child returns (creating if needed) the sample for the given label values.
func (f *family) child(values []string) *sample {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.children[key]
	if !ok {
		s = &sample{labelValues: append([]string(nil), values...)}
		switch f.kind {
		case kindCounter:
			s.counter = &Counter{}
		case kindGauge:
			s.gauge = &Gauge{}
		case kindHistogram:
			s.hist = &Histogram{bounds: f.bounds, counts: make([]atomic.Int64, len(f.bounds)+1)}
		}
		f.children[key] = s
	}
	return s
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ f *family }

// With returns the child counter for the given label values, creating it on
// first use. The lookup takes the family lock and allocates the key — cheap
// at request granularity; resolve children once for per-item hot loops.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.child(values).counter
}

// GaugeVec is a gauge family keyed by label values.
type GaugeVec struct{ f *family }

// With returns the child gauge for the given label values, creating it on
// first use.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.child(values).gauge
}

// HistogramVec is a histogram family keyed by label values.
type HistogramVec struct{ f *family }

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.child(values).hist
}

// Registry owns a set of metric families and exports them in Prometheus
// text format. Registration panics on invalid or duplicate names
// (programmer error, caught at startup); recording and scraping are
// concurrency-safe.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register validates and installs a family.
func (r *Registry) register(name, help string, kind metricKind, labels []string, bounds []float64) *family {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validLabelName(l) {
			panic(fmt.Sprintf("obs: metric %s: invalid label name %q", name, l))
		}
	}
	if kind == kindHistogram {
		if len(bounds) == 0 {
			panic(fmt.Sprintf("obs: histogram %s needs at least one bucket bound", name))
		}
		for i := 1; i < len(bounds); i++ {
			if !(bounds[i] > bounds[i-1]) {
				panic(fmt.Sprintf("obs: histogram %s bucket bounds must be strictly ascending", name))
			}
		}
		for _, l := range labels {
			if l == "le" {
				panic(fmt.Sprintf("obs: histogram %s may not declare the reserved label le", name))
			}
		}
	}
	f := &family{name: name, help: help, kind: kind, labels: labels,
		bounds: bounds, children: make(map[string]*sample)}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	r.families[name] = f
	return f
}

// Counter registers and returns an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter, nil, nil).child(nil).counter
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, kindCounter, labels, nil)}
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the zero-overhead way to export a counter a subsystem already
// maintains as its own atomic.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.register(name, help, kindCounter, nil, nil).child(nil).fnInt = fn
}

// Gauge registers and returns an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge, nil, nil).child(nil).gauge
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, kindGauge, labels, nil)}
}

// GaugeFunc registers a gauge evaluated at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, kindGauge, nil, nil).child(nil).fnFloat = fn
}

// Histogram registers and returns an unlabeled histogram over the given
// ascending bucket upper bounds (an +Inf terminal bucket is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.register(name, help, kindHistogram, nil, bounds).child(nil).hist
}

// HistogramVec registers a labeled histogram family; every child shares the
// bucket layout.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, kindHistogram, labels, bounds)}
}

// WritePrometheus exports every family in Prometheus text exposition format
// (version 0.0.4), sorted by family name and label values so scrapes are
// deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler serves the registry as a GET /metrics scrape target.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// write renders one family: HELP/TYPE header plus every child's samples.
func (f *family) write(b *strings.Builder) {
	f.mu.Lock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children := make([]*sample, 0, len(keys))
	for _, k := range keys {
		children = append(children, f.children[k])
	}
	f.mu.Unlock()
	if len(children) == 0 {
		return
	}

	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	for _, s := range children {
		switch f.kind {
		case kindCounter, kindGauge:
			v := sampleValue(s)
			b.WriteString(f.name)
			writeLabels(b, f.labels, s.labelValues, "", 0)
			b.WriteByte(' ')
			b.WriteString(formatValue(v))
			b.WriteByte('\n')
		case kindHistogram:
			h := s.hist
			cum := int64(0)
			for i, bound := range h.bounds {
				cum += h.counts[i].Load()
				b.WriteString(f.name)
				b.WriteString("_bucket")
				writeLabels(b, f.labels, s.labelValues, "le", bound)
				fmt.Fprintf(b, " %d\n", cum)
			}
			// The terminal +Inf bucket equals the total count by definition;
			// read count once and reuse so the invariant holds even mid-scrape.
			total := h.count.Load()
			if over := cum + h.counts[len(h.bounds)].Load(); over > total {
				// A racing Observe bumped a bucket before the count; clamp so
				// cumulative buckets stay ≤ count for strict parsers.
				total = over
			}
			b.WriteString(f.name)
			b.WriteString("_bucket")
			writeLabels(b, f.labels, s.labelValues, "le", math.Inf(1))
			fmt.Fprintf(b, " %d\n", total)
			b.WriteString(f.name)
			b.WriteString("_sum")
			writeLabels(b, f.labels, s.labelValues, "", 0)
			fmt.Fprintf(b, " %s\n", formatValue(h.Sum()))
			b.WriteString(f.name)
			b.WriteString("_count")
			writeLabels(b, f.labels, s.labelValues, "", 0)
			fmt.Fprintf(b, " %d\n", total)
		}
	}
}

// sampleValue reads a counter/gauge sample from whichever source it has.
func sampleValue(s *sample) float64 {
	switch {
	case s.fnInt != nil:
		return float64(s.fnInt())
	case s.fnFloat != nil:
		return s.fnFloat()
	case s.counter != nil:
		return float64(s.counter.Value())
	case s.gauge != nil:
		return float64(s.gauge.Value())
	}
	return 0
}

// writeLabels renders {a="x",b="y"} (plus an optional le bound), or nothing
// when the sample has no labels.
func writeLabels(b *strings.Builder, names, values []string, extraName string, extraBound float64) {
	if len(names) == 0 && extraName == "" {
		return
	}
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		if math.IsInf(extraBound, 1) {
			b.WriteString("+Inf")
		} else {
			b.WriteString(formatValue(extraBound))
		}
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// formatValue renders a float the shortest round-trippable way.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes a HELP string (backslash and newline only).
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// validMetricName reports whether name matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// validLabelName reports whether name matches [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
