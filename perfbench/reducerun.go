package main

import (
	"fmt"
	"runtime"
	"time"
)

// redriveRuns is how many Krylov re-drives a traced reduce run makes before
// its timed window; the krylov.{solve,ortho,congruence}_s metrics are their
// medians.
const redriveRuns = 3

// runReduce is a closed loop of one time-to-ROM op at a time. Before each op
// the heap is collected, so every op starts from the same heap; neither the
// collection nor the correctness checks after the op are timed.
//
// Each op is a write (it creates a model), so write_p50_ms is the op itself,
// and read_p50_ms is the model's first read: a packed sweep of every diagonal
// entry of the fresh ROM. ops_per_s is the closed loop's throughput at the
// median op, 1/latency_p50.
//
// A traced run alternates traced and untraced ops; the per-layer numbers come
// from the traced ones and the difference of the two medians is the tracing
// overhead.
//
// rom_rel_err comes from the canonical instance, reduced once after the
// window; every timed op is still checked against its own seeded grid's
// full system, also after the window.
func runReduce(spec, canonical gridSpec, cfg runConfig, res *result, rep *report) error {
	st, rawSetup, setup, err := timedSetup(func() (*reduceState, error) { return setupReduce(spec) }, nil)
	if err != nil {
		return err
	}
	rep.SetupRuns = setupRuns
	rep.SetupRSSMB = peakRSSMB()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		for i := 0; i < redriveRuns; i++ {
			runtime.GC()
			if err := redrive(spec, tr, st.warm); err != nil {
				return err
			}
		}
	}

	// lat, untraced and reads are normalized by the calibration taken just
	// before their op; rawLat and rawReads are as measured.
	var lat, untraced, reads, rawLat, rawReads, cals samples
	var allocs []float64
	var gcCPU, cpu float64
	var last *reduced
	steal := startSteal()
	deadline := time.Now().Add(cfg.window)
	for i := 0; time.Now().Before(deadline); i++ {
		opTr := tr
		if cfg.trace && i%2 == 1 {
			opTr = nil
		}
		runtime.GC()
		cal := calibrate()
		cals = append(cals, cal)
		before := readRuntime()
		t0 := time.Now()
		r, err := reduceOp(spec, opTr)
		d := time.Since(t0)
		after := readRuntime()
		res.Attempted++
		if err != nil {
			rep.failure(res, err)
			continue
		}
		if err := st.verify(r); err != nil {
			rep.failure(res, err)
			continue
		}
		read, err := st.readProbe(r)
		if err != nil {
			rep.failure(res, err)
			continue
		}
		if cfg.trace && opTr == nil {
			untraced = append(untraced, norm(d, cal))
		} else {
			lat = append(lat, norm(d, cal))
			rawLat = append(rawLat, d)
		}
		gcCPU += after.gcCPU - before.gcCPU
		cpu += after.totalCPU - before.totalCPU
		allocs = append(allocs, float64(after.allocBytes-before.allocBytes)/1e6)
		reads = append(reads, norm(read, cal))
		rawReads = append(rawReads, read)
		last = r
	}
	rep.Env.StealFrac = steal.frac()
	rep.Samples = len(lat)
	rep.CalMS = ms(cals.median())
	if last == nil {
		return fmt.Errorf("no op succeeded: %s", rep.FirstError)
	}
	res.Correct = true
	peakRSS := peakRSSMB()
	wrong, err := st.checkFull()
	if err != nil {
		return err
	}
	for _, e := range wrong {
		rep.failure(res, e)
	}

	if !cfg.trace {
		p50 := lat.median()
		tail, pct := lat.tail()
		rep.TailPct = pct
		rep.Raw = map[string]float64{"setup_s": sec(rawSetup), "latency_p50_ms": ms(rawLat.median()),
			"read_p50_ms": ms(rawReads.median())}
		put(res, "setup_s", sec(setup), "s")
		put(res, "latency_p50_ms", ms(p50), "ms")
		put(res, "latency_tail_ms", ms(tail), "ms")
		put(res, "ops_per_s", 1/sec(p50), "1/s")
		put(res, "read_p50_ms", ms(reads.median()), "ms")
		put(res, "write_p50_ms", ms(p50), "ms")
		put(res, "alloc_mb_per_op", medianFloat(allocs), "MB")
		put(res, "peak_rss_mb", peakRSS, "MB")
		e, err := canonicalErr(canonical)
		if err != nil {
			return err
		}
		put(res, "rom_rel_err", e, "ratio")
		return nil
	}

	tr.finish()
	if err := tr.write(traceFile(rep.Workload, cfg.seed)); err != nil {
		return err
	}
	for _, name := range []string{"grid.build", "ward.partition", "ward.schur", "sparse.factor",
		"krylov.phase", "lti.modalize", "lti.pack", "krylov.solve", "krylov.ortho", "krylov.congruence"} {
		put(res, name+"_s", sec(tr.perOp(name).median()), "s")
	}
	put(res, "core.reduce_self_s", sec(tr.selfTimes("core.reduce").median()), "s")
	reductionCounts(res, []*reduced{last}, []int{spec.moments})
	put(res, "runtime.gc_cpu_frac", gcCPU/cpu, "ratio")
	put(res, "trace.overhead_frac", overhead(lat, untraced), "ratio")
	if err := runLadder(servedModel(last), nil, res.Metrics); err != nil {
		return err
	}
	// No HTTP server runs in a reduce workload: its scrape-derived layers do
	// no work here.
	for _, name := range scrapeMetrics {
		put(res, name.name, 0, name.unit)
	}
	return nil
}

// reductionCounts reports the shape of the given reductions, summed: Ward
// elimination, factor fill, and the paper's Table I operation counts.
func reductionCounts(res *result, rs []*reduced, moments []int) {
	var eliminated, states, nnz, solves, dots, prima, modal, blocks float64
	for i, r := range rs {
		c, _ := tableICounts(r, moments[i])
		eliminated += float64(r.stats.Ward.External)
		states += float64(r.n)
		nnz += float64(r.stats.FactorNNZ)
		solves += float64(r.stats.PencilSolves)
		dots += float64(c.dots)
		prima += float64(c.primaDots)
		md, fb := r.modal.ModalCount()
		modal += float64(md)
		blocks += float64(md + fb)
	}
	put(res, "ward.eliminated_frac", eliminated/states, "ratio")
	put(res, "sparse.factor_nnz", nnz, "count")
	put(res, "krylov.pencil_solves", solves, "count")
	put(res, "krylov.dot_products", dots, "count")
	// The two Gram–Schmidt passes count every product twice; Table I counts
	// single-pass products.
	put(res, "krylov.ortho_vs_prima", dots/2/prima, "ratio")
	put(res, "lti.modal_block_frac", modal/blocks, "ratio")
}

func put(res *result, name string, v float64, unit string) {
	res.Metrics[name] = metric{Value: v, Unit: unit}
}
