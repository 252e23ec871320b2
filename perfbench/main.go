// Command perfbench is the repository's benchmark: time-to-ROM on the
// paper's ckt1 and on a multiscale transmission+distribution grid, and a
// mixed read/write serving load against in-process pgserve. It prints one
// JSON result line last; see README.md for the workloads and how to run one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a workload run's outcome; the last stdout line is its JSON.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report carries everything a run prints besides the result line: the
// environment stamp, the tail percentile behind latency_tail_ms, and the
// checks that failed.
type report struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Trace      bool               `json:"trace"`
	Env        environment        `json:"env"`
	FailFrac   float64            `json:"fail_frac"`
	TailPct    float64            `json:"tail_percentile,omitempty"`
	Samples    int                `json:"latency_samples,omitempty"`
	SetupRuns  int                `json:"setup_runs"`
	SetupRSSMB float64            `json:"setup_peak_rss_mb"`
	CalMS      float64            `json:"calibration_ms"`
	Raw        map[string]float64 `json:"raw,omitempty"`
	FirstError string             `json:"first_error,omitempty"`
}

// runConfig is one invocation's parameters.
type runConfig struct {
	seed   int64
	window time.Duration
	trace  bool
}

// run is one workload's body; it fills res and rep.
type run func(cfg runConfig, res *result, rep *report) error

var workloads = map[string]run{
	"reduce-ckt1": func(cfg runConfig, res *result, rep *report) error {
		return runReduce(ckt1Spec(&cfg.seed), ckt1Spec(nil), cfg, res, rep)
	},
	"reduce-multiscale": func(cfg runConfig, res *result, rep *report) error {
		return runReduce(multiscaleSpec(&cfg.seed), multiscaleSpec(nil), cfg, res, rep)
	},
	"serve-mix": runServeMix,
}

func main() {
	workload := flag.String("workload", "", "workload name: reduce-ckt1, reduce-multiscale or serve-mix")
	seed := flag.Int64("seed", 1, "input generator seed")
	seconds := flag.Int("seconds", 10, "length of the timed window")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	body, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *traceFlag)
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1}
	res := &result{Metrics: map[string]metric{}}
	rep := &report{Workload: *workload, Seed: *seed, Trace: cfg.trace, Env: stampEnvironment()}
	if err := body(cfg, res, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if res.Attempted > 0 {
		rep.FailFrac = float64(res.Failed) / float64(res.Attempted)
	}
	res.Correct = res.Correct && res.Failed == 0
	emit("report", rep)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// emit prints a tagged JSON line ahead of the result line.
func emit(tag string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Printf("# %s %s\n", tag, b)
}

// traceFile is where a traced run writes its spans, inside the build
// directory the benchmark already owns.
func traceFile(workload string, seed int64) string {
	return filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}

// setupRuns is how many times a run performs its set-up; setup_s is the
// median, and the last set-up is the one the timed window uses.
const setupRuns = 5

// timedSetup runs setup setupRuns times and returns the last state with the
// median duration, raw and normalized by a calibration right after each
// set-up. The heap is collected before each calibration, so no collection
// the set-up left running slows it. discard, when non-nil, releases every
// other state, outside the timing.
func timedSetup[T any](setup func() (T, error), discard func(T)) (st T, raw, normed time.Duration, err error) {
	var times, normTimes samples
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		s, err := setup()
		d := time.Since(t0)
		runtime.GC()
		normTimes = append(normTimes, norm(d, calibrate()))
		if i > 0 && discard != nil {
			discard(st)
		}
		st = s
		if err != nil {
			if discard != nil {
				discard(st)
			}
			return st, 0, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, d)
	}
	return st, times.median(), normTimes.median(), nil
}

// failure records one failed operation on the report.
func (rep *report) failure(res *result, err error) {
	res.Failed++
	if rep.FirstError == "" {
		rep.FirstError = err.Error()
	}
}
