package obs

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// Count reads the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// buildTestRegistry populates one of every metric shape the exporter emits.
func buildTestRegistry() (*Registry, *Histogram) {
	reg := NewRegistry()
	c := reg.Counter("test_requests_total", "Requests served.")
	c.Add(41)
	c.Inc()
	cv := reg.CounterVec("test_by_route_total", "Per-route requests.", "route", "status")
	cv.With("/eval", "200").Add(3)
	cv.With("/eval", "400").Inc()
	cv.With(`/we"ird\path`, "200").Inc() // exercises label escaping
	g := reg.Gauge("test_in_flight", "In-flight requests.")
	g.Set(7)
	g.Dec()
	gv := reg.GaugeVec("test_replica_up", "Per-replica health.", "replica")
	gv.With("http://a:8080").Set(1)
	gv.With("http://b:8080").Set(0)
	reg.GaugeFunc("test_func_gauge", "Func-backed gauge.", func() float64 { return 2.5 })
	reg.CounterFunc("test_func_counter_total", "Func-backed counter.", func() int64 { return 9 })
	h := reg.Histogram("test_latency_seconds", "Latency.", []float64{0.001, 0.01, 0.1, 1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(5) // overflow bucket
	hv := reg.HistogramVec("test_route_seconds", "Per-route latency.", ExpBuckets(1e-4, 10, 4), "route")
	hv.With("/sweep").Observe(0.002)
	return reg, h
}

// TestExporterRoundTrip renders the registry and re-parses it with the
// strict parser: every format invariant (name charset, HELP/TYPE pairing,
// monotone cumulative buckets, le="+Inf" terminal bucket == _count) is
// checked by ParseText itself; the assertions below pin the recorded values.
func TestExporterRoundTrip(t *testing.T) {
	reg, _ := buildTestRegistry()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	sc, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("ParseText rejected our own exposition:\n%s\nerr: %v", b.String(), err)
	}
	want := []struct {
		name  string
		pairs []string
		value float64
	}{
		{"test_requests_total", nil, 42},
		{"test_by_route_total", []string{"route", "/eval", "status", "200"}, 3},
		{"test_by_route_total", []string{"route", "/eval", "status", "400"}, 1},
		{"test_by_route_total", []string{"route", `/we"ird\path`}, 1},
		{"test_in_flight", nil, 6},
		{"test_replica_up", []string{"replica", "http://a:8080"}, 1},
		{"test_replica_up", []string{"replica", "http://b:8080"}, 0},
		{"test_func_gauge", nil, 2.5},
		{"test_func_counter_total", nil, 9},
		{"test_latency_seconds_count", nil, 3},
		{"test_latency_seconds_bucket", []string{"le", "0.001"}, 1},
		{"test_latency_seconds_bucket", []string{"le", "0.1"}, 2},
		{"test_latency_seconds_bucket", []string{"le", "+Inf"}, 3},
		{"test_route_seconds_bucket", []string{"route", "/sweep", "le", "+Inf"}, 1},
	}
	for _, w := range want {
		got, ok := sc.Value(w.name, w.pairs...)
		if !ok {
			t.Fatalf("series %s %v missing from scrape:\n%s", w.name, w.pairs, b.String())
		}
		if got != w.value {
			t.Errorf("%s %v = %g, want %g", w.name, w.pairs, got, w.value)
		}
	}
	if sum, _ := sc.Value("test_latency_seconds_sum"); math.Abs(sum-5.0505) > 1e-12 {
		t.Errorf("histogram sum = %g, want 5.0505", sum)
	}
	if typ := sc.Types["test_latency_seconds"]; typ != "histogram" {
		t.Errorf("TYPE of test_latency_seconds = %q, want histogram", typ)
	}
}

// malformedScrapes are payloads ParseText must reject: the failure modes
// the CI smoke check relies on catching.
var malformedScrapes = map[string]string{
	"no TYPE":             "# HELP x h\nx 1\n",
	"no HELP":             "# TYPE x counter\nx 1\n",
	"bad metric name":     "# HELP 9x h\n# TYPE 9x counter\n9x 1\n",
	"bad value":           "# HELP x h\n# TYPE x counter\nx nope\n",
	"unterminated labels": "# HELP x h\n# TYPE x counter\nx{a=\"b 1\n",
	"duplicate TYPE":      "# TYPE x counter\n# TYPE x gauge\n",
	"non-cumulative buckets": "# HELP h h\n# TYPE h histogram\n" +
		"h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
	"missing +Inf bucket": "# HELP h h\n# TYPE h histogram\n" +
		"h_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n",
	"count mismatch": "# HELP h h\n# TYPE h histogram\n" +
		"h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 7\n",
	"duplicate series":       "# HELP x h\n# TYPE x gauge\nx{a=\"1\",b=\"2\"} 1\nx{b=\"2\",a=\"1\"} 2\n",
	"empty label duplicates": "# HELP x h\n# TYPE x gauge\nx 1\nx{a=\"\"} 2\n",
}

func TestParserRejectsMalformed(t *testing.T) {
	for name, payload := range malformedScrapes {
		if _, err := ParseText(strings.NewReader(payload)); err == nil {
			t.Errorf("%s: parser accepted malformed payload:\n%s", name, payload)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h_seconds", "h", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 108 {
		t.Fatalf("sum = %g, want 108", h.Sum())
	}
	var b strings.Builder
	reg.WritePrometheus(&b)
	sc, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		le string
		n  float64
	}{{"1", 2}, {"2", 4}, {"4", 5}, {"+Inf", 6}} {
		if got, _ := sc.Value("h_seconds_bucket", "le", w.le); got != w.n {
			t.Errorf("bucket le=%s = %g, want %g", w.le, got, w.n)
		}
	}
}

func TestRegistryPanicsOnBadRegistration(t *testing.T) {
	cases := map[string]func(*Registry){
		"bad name":        func(r *Registry) { r.Counter("9bad", "h") },
		"duplicate":       func(r *Registry) { r.Counter("x_total", "h"); r.Counter("x_total", "h") },
		"bad label":       func(r *Registry) { r.CounterVec("x_total", "h", "9bad") },
		"reserved le":     func(r *Registry) { r.HistogramVec("x_seconds", "h", []float64{1}, "le") },
		"unsorted bounds": func(r *Registry) { r.Histogram("x_seconds", "h", []float64{2, 1}) },
		"no bounds":       func(r *Registry) { r.Histogram("x_seconds", "h", nil) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: registration did not panic", name)
				}
			}()
			fn(NewRegistry())
		}()
	}
}

// TestConcurrentRecordAndScrape hammers every instrument from many
// goroutines while scraping continuously; run under -race this is the
// exporter's data-race proof, and the final scrape must account for every
// recorded event.
func TestConcurrentRecordAndScrape(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "c")
	cv := reg.CounterVec("cv_total", "cv", "k")
	g := reg.Gauge("g", "g")
	h := reg.Histogram("h_seconds", "h", ExpBuckets(1e-6, 10, 8))
	hv := reg.HistogramVec("hv_seconds", "hv", []float64{0.5}, "k")

	const workers, iters = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // continuous scraper
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var b strings.Builder
			if err := reg.WritePrometheus(&b); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			if _, err := ParseText(strings.NewReader(b.String())); err != nil {
				t.Errorf("mid-storm scrape is malformed: %v", err)
				return
			}
		}
	}()
	keys := []string{"a", "b", "c"}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			child := cv.With(keys[w%len(keys)])
			for i := 0; i < iters; i++ {
				c.Inc()
				child.Inc()
				g.Add(1)
				h.Observe(float64(i%1000) * 1e-6)
				hv.With(keys[i%len(keys)]).Observe(0.1)
			}
		}(w)
	}
	// Stop the scraper once every recorder's writes are visible, then wait
	// for everything (recorders + scraper) to finish.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	go func() {
		for c.Value() < workers*iters {
			time.Sleep(time.Millisecond)
		}
		close(stop)
	}()
	<-done

	if c.Value() != workers*iters {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*iters)
	}
	if g.Value() != workers*iters {
		t.Fatalf("gauge = %d, want %d", g.Value(), workers*iters)
	}
	if h.Count() != workers*iters {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*iters)
	}
	var b strings.Builder
	reg.WritePrometheus(&b)
	sc, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("final scrape: %v", err)
	}
	if v, _ := sc.Value("h_seconds_bucket", "le", "+Inf"); v != workers*iters {
		t.Fatalf("final +Inf bucket = %g, want %d", v, workers*iters)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var cv *CounterVec
	var hv *HistogramVec
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Dec()
	h.Observe(1)
	h.ObserveSince(time.Now())
	cv.With("x").Inc()
	hv.With("x").Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments reported nonzero values")
	}
}

func TestTrace(t *testing.T) {
	tr := NewTrace("")
	if tr.ID == "" || !ValidRequestID(tr.ID) {
		t.Fatalf("generated ID %q is invalid", tr.ID)
	}
	if got := NewTrace("client-id_1.2"); got.ID != "client-id_1.2" {
		t.Fatalf("valid propagated ID replaced: %q", got.ID)
	}
	for _, bad := range []string{"", "has space", "semi;colon", "quote\"", strings.Repeat("a", 65), "newline\n"} {
		if got := NewTrace(bad); got.ID == bad {
			t.Fatalf("invalid propagated ID %q accepted", bad)
		}
	}
	ctx := ContextWithTrace(context.Background(), tr)
	if RequestID(ctx) != tr.ID {
		t.Fatal("RequestID did not round-trip through context")
	}
	TraceFrom(ctx).SetModel("m1")
	if tr.Model != "m1" {
		t.Fatal("SetModel did not annotate the trace")
	}
	if RequestID(context.Background()) != "" {
		t.Fatal("untraced context reported a request ID")
	}
	var nilTrace *Trace
	nilTrace.SetModel("x") // must not panic
}
