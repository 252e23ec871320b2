package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
)

// commit is stamped at build time by run.sh: the git revision when the
// sources are a git checkout, otherwise a digest of the source files.
var commit = "unknown"

// environment is the stamp every run prints next to its result, so a noisy
// host (CPU steal) can be told apart from a program change.
type environment struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	StealFrac  float64 `json:"steal_frac"`
}

func stampEnvironment() environment {
	return environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Commit:     commit,
		StealFrac:  -1,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks reads the aggregate steal and total tick counters of /proc/stat.
func cpuTicks() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // guest time is already counted in user time
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealMeter measures the host's CPU steal share over a window.
type stealMeter struct {
	steal, total uint64
	ok           bool
}

func startSteal() stealMeter {
	s, t, ok := cpuTicks()
	return stealMeter{s, t, ok}
}

// frac returns the steal share of all CPU ticks since start, or -1 when
// /proc/stat is unavailable.
func (m stealMeter) frac() float64 {
	s, t, ok := cpuTicks()
	if !ok || !m.ok || t <= m.total {
		return -1
	}
	return float64(s-m.steal) / float64(t-m.total)
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeCounters samples the heap allocation total, the runtime's GC CPU
// estimate and the process CPU time. The runtime refreshes its GC CPU figure
// only at the end of each GC cycle, so it is compared against process CPU
// time rather than against the runtime's own (equally stale) total.
type runtimeCounters struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	var ru syscall.Rusage
	var cpu float64
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		cpu = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	}
	return runtimeCounters{allocBytes: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), totalCPU: cpu}
}

// resetPeakRSS restarts the kernel's resident-set high-water mark of this
// process at its current size.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSSinceResetMB is the resident-set high-water mark since resetPeakRSS,
// read as VmHWM from /proc/self/status.
func peakRSSSinceResetMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
