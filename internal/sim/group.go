package sim

import (
	"fmt"
	"runtime"
	"sync"
)

// GroupOptions configures a StepperGroup.
type GroupOptions struct {
	// Workers shards the member sessions across persistent goroutines,
	// signaled once per Advance; 0 or 1 means serial.
	Workers int
}

// StepperGroup advances N compatible Steppers — same model, same Dt — as
// one batch. On a fully modal model the members of a shard run, in whole
// 4-lane vectors, through one fused per-mode pass: per step and modal block
// the propagator constants e^{λₖh}, φ-weights, and residue rows are loaded
// once and applied to every fused session, with the per-mode coordinates
// gathered into a mode-major structure-of-arrays (z[k·S+s]) so the inner
// session loop streams contiguously. The fused pass only pays off from
// groupMinLanes sessions; narrower shards, the members past the last whole
// vector, and every member of a model with implicit-rule blocks advance one
// by one through the single-session kernels.
//
// The trajectories equal calling Advance on each member independently: per
// session, every floating-point operation runs in the same order with the
// same operands — the fusion only reorders work across sessions, which share
// no state. Members keep full ownership of their state between group
// advances: Snapshot, Restore, and independent Advance all remain valid,
// and members may sit at different step indices.
//
// A StepperGroup is not safe for concurrent use; callers serialize Advance
// the same way they serialize a Stepper.
type StepperGroup struct {
	members []*Stepper
	h       float64
	p       int
	shards  []*groupShard
	pool    *groupPool
}

// The fused kernels advance sessions in vectors of groupVecLanes float64
// lanes, and only from groupMinLanes sessions on. Measured on the ckt1 ROM
// (51 blocks, 306 modes, p = 51; 64-step advances, 2-vCPU Xeon), the fused
// pass costs per session 1.2× an independent advance at 4 sessions, 1.05×
// at 8, and 0.6–0.8× from 12 on when the width is a whole number of
// vectors; a ragged width runs its last lanes through scalar tails and
// loses most of that (1.1× at 15). So a shard fuses its largest multiple of
// groupVecLanes members when that reaches groupMinLanes, and advances the
// rest one by one.
const (
	groupVecLanes = 4
	groupMinLanes = 12
)

// fusedLanes returns how many of a fully modal shard's ns members the fused
// kernels advance.
func fusedLanes(ns int) int {
	if f := ns - ns%groupVecLanes; f >= groupMinLanes {
		return f
	}
	return 0
}

// groupShard owns a contiguous member range: members [lo, mid) run the
// fused kernels over its SoA staging buffers, members [mid, hi) advance one
// by one. A shard with nothing to fuse has mid == lo and no staging.
type groupShard struct {
	lo, mid, hi int

	zr, zi     [][]float64 // per block: mode-major z parts [k*S+s]
	uNow, uNxt []float64   // endpoint drives, port-major [port*S+s]
	ybatch     []float64   // output staging, row-major [r*S+s]
}

// NewStepperGroup validates that the members can share one model's tables
// and builds the fused shards' staging buffers. Members must be distinct steppers
// over the same modal data (same ModalBlock pointers — i.e. the same model)
// with identical Dt; the propagator tables are verified bit-equal, which is
// what lets the kernel read member 0's copy for everyone.
func NewStepperGroup(members []*Stepper, opts GroupOptions) (*StepperGroup, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("sim: stepper group needs at least one member")
	}
	seen := make(map[*Stepper]bool, len(members))
	ref := members[0]
	for i, st := range members {
		if st == nil {
			return nil, fmt.Errorf("sim: group member %d is nil", i)
		}
		if seen[st] {
			return nil, fmt.Errorf("sim: group member %d appears more than once", i)
		}
		seen[st] = true
		if err := groupCompatible(ref, st); err != nil {
			return nil, fmt.Errorf("sim: group member %d: %w", i, err)
		}
	}
	g := &StepperGroup{members: members, h: ref.h, p: ref.p}
	allModal := true
	for b := range ref.blocks {
		if ref.blocks[b].modal == nil {
			allModal = false
			break
		}
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(members) {
		workers = len(members)
	}
	chunk := (len(members) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > len(members) {
			hi = len(members)
		}
		if lo >= hi {
			break
		}
		g.shards = append(g.shards, newGroupShard(ref, lo, hi, allModal))
	}
	return g, nil
}

func newGroupShard(ref *Stepper, lo, hi int, allModal bool) *groupShard {
	sh := &groupShard{lo: lo, mid: lo, hi: hi}
	if !allModal {
		return sh
	}
	s := fusedLanes(hi - lo)
	if s == 0 {
		return sh
	}
	sh.mid = lo + s
	sh.zr = make([][]float64, len(ref.blocks))
	sh.zi = make([][]float64, len(ref.blocks))
	for b := range ref.blocks {
		q := len(ref.blocks[b].modal.z)
		sh.zr[b] = make([]float64, q*s)
		sh.zi[b] = make([]float64, q*s)
	}
	sh.uNow = make([]float64, ref.m*s)
	sh.uNxt = make([]float64, ref.m*s)
	sh.ybatch = make([]float64, ref.p*s)
	return sh
}

// groupCompatible reports whether b can be fused with a: the kernel shares
// a's propagator tables and residue rows across all members, so they must be
// the same model at the same step size — and the derived tables must be
// bit-equal, which is checked rather than assumed.
func groupCompatible(a, b *Stepper) error {
	if a.h != b.h {
		return fmt.Errorf("dt %g differs from group dt %g", b.h, a.h)
	}
	if a.m != b.m || a.p != b.p {
		return fmt.Errorf("port shape %d×%d differs from group %d×%d", b.m, b.p, a.m, a.p)
	}
	if len(a.blocks) != len(b.blocks) {
		return fmt.Errorf("%d blocks differ from group %d", len(b.blocks), len(a.blocks))
	}
	for i := range a.blocks {
		ab, bb := &a.blocks[i], &b.blocks[i]
		switch {
		case ab.modal != nil && bb.modal != nil:
			if ab.modal.mb != bb.modal.mb {
				return fmt.Errorf("block %d is not backed by the same modal data", i)
			}
			for k := range ab.modal.expLH {
				if ab.modal.expLH[k] != bb.modal.expLH[k] ||
					ab.modal.fNow[k] != bb.modal.fNow[k] ||
					ab.modal.fNxt[k] != bb.modal.fNxt[k] {
					return fmt.Errorf("block %d propagator tables are not bit-equal", i)
				}
			}
		case ab.implicit != nil && bb.implicit != nil:
			if ab.implicit.input != bb.implicit.input ||
				ab.implicit.beta != bb.implicit.beta ||
				len(ab.implicit.x) != len(bb.implicit.x) {
				return fmt.Errorf("block %d implicit state shape differs", i)
			}
		default:
			return fmt.Errorf("block %d kind differs", i)
		}
	}
	return nil
}

// Size returns the member count.
func (g *StepperGroup) Size() int { return len(g.members) }

// Advance integrates every member n further steps, member s driven by
// inputs[s] at its own absolute session time, and returns one Result per
// member — each bit-identical to what members[s].Advance(n, inputs[s]) would
// have produced.
func (g *StepperGroup) Advance(n int, inputs []Input) ([]*Result, error) {
	if n < 0 {
		return nil, fmt.Errorf("sim: cannot advance %d steps", n)
	}
	if len(inputs) != len(g.members) {
		return nil, fmt.Errorf("sim: group advance got %d inputs for %d members", len(inputs), len(g.members))
	}
	for s, in := range inputs {
		if in == nil {
			return nil, fmt.Errorf("sim: group member %d input waveform is required", s)
		}
	}
	results := make([]*Result, len(g.members))
	for s := range results {
		results[s] = newResult(n, g.p)
	}
	if n == 0 {
		return results, nil
	}
	if len(g.shards) == 1 {
		advanceGroupShard(g.members, g.shards[0], n, inputs, results)
		return results, nil
	}
	g.ensurePool()
	g.pool.run(groupJob{n: n, inputs: inputs, results: results})
	return results, nil
}

// Close stops the persistent shard workers, if any were started. The group
// remains usable; the next multi-shard Advance restarts them.
func (g *StepperGroup) Close() {
	if g.pool != nil {
		g.pool.close()
		g.pool = nil
	}
}

// advanceGroupShard runs the fused kernels over the shard's fused members
// and advances the rest one by one. It deliberately takes the members slice
// rather than the *StepperGroup so the persistent workers do not keep the
// group reachable (see ensurePool).
func advanceGroupShard(members []*Stepper, sh *groupShard, n int, inputs []Input, results []*Result) {
	if sh.mid > sh.lo {
		advanceGroupShardFused(members, sh, n, inputs, results)
	}
	for s := sh.mid; s < sh.hi; s++ {
		members[s].advanceInto(n, inputs[s], results[s])
	}
}

// advanceGroupShardFused advances a shard's fused members [lo, mid): the
// per-mode coordinates and endpoint drives live in split real/imaginary
// float arrays with sessions innermost, and the mode-update and
// residue-accumulation inner loops run through the SIMD-dispatched kernels
// (kernels.go). Per session the operation sequence is the split-complex form
// of exactly what the scalar Stepper computes per step, accumulated in the
// same block/mode/row order, so the trajectories match independent advances
// (see the numerical contract in kernels.go: a dropped ±0·x term can flip a
// zero's sign but never a value).
//
//pgmor:noalloc
func advanceGroupShardFused(members []*Stepper, sh *groupShard, n int, inputs []Input, results []*Result) {
	s0 := sh.lo
	ns := sh.mid - sh.lo
	ref := members[s0]
	p := ref.p
	// Gather the per-mode coordinates into the split mode-major staging.
	for b := range ref.blocks {
		zrb, zib := sh.zr[b], sh.zi[b]
		for s := 0; s < ns; s++ {
			for k, zk := range members[s0+s].blocks[b].modal.z {
				zrb[k*ns+s] = real(zk)
				zib[k*ns+s] = imag(zk)
			}
		}
	}
	// Left endpoints under the (possibly new) drives, exactly as Advance.
	for s := s0; s < sh.mid; s++ {
		inputs[s](members[s].Time(), members[s].uNow) //pgmor:alloc caller-provided input callback; its allocation budget is the caller's
	}
	// Stage the left-endpoint drives port-major once; after each step the
	// staged right endpoint becomes the next left endpoint by buffer swap,
	// so steady state restages only one endpoint per step.
	for s := 0; s < ns; s++ {
		st := members[s0+s]
		for port, u := range st.uNow {
			sh.uNow[port*ns+s] = u
		}
	}
	for i := 0; i < n; i++ {
		for s := s0; s < sh.mid; s++ {
			st := members[s]
			st.k++
			t := float64(st.k) * st.h
			results[s].T[i] = t
			inputs[s](t, st.uNext) //pgmor:alloc caller-provided input callback; its allocation budget is the caller's
		}
		for s := 0; s < ns; s++ {
			st := members[s0+s]
			for port, u := range st.uNext {
				sh.uNxt[port*ns+s] = u
			}
		}
		for b := range ref.blocks {
			mst := ref.blocks[b].modal
			port := mst.input
			u0 := sh.uNow[port*ns : (port+1)*ns]
			u1 := sh.uNxt[port*ns : (port+1)*ns]
			zrb, zib := sh.zr[b], sh.zi[b]
			for k := range mst.expLH {
				e, f0, f1 := mst.expLH[k], mst.fNow[k], mst.fNxt[k]
				stepModes(zrb[k*ns:(k+1)*ns], zib[k*ns:(k+1)*ns], u0, u1,
					real(e), imag(e), real(f0), imag(f0), real(f1), imag(f1))
			}
		}
		for s := s0; s < sh.mid; s++ {
			st := members[s]
			copy(st.uNow, st.uNext)
		}
		// Outputs into the row-major batch: per session the accumulation
		// order is block-ascending, mode-ascending, row-ascending with the
		// direct term after each block's modes — the exact order outputInto
		// uses.
		yb := sh.ybatch
		clear(yb)
		for b := range ref.blocks {
			mst := ref.blocks[b].modal
			accumBlock(yb, sh.zr[b], sh.zi[b], mst.mb.R.Data, len(mst.expLH), p, ns)
			if d := mst.mb.D; d != nil {
				// uNow has been advanced to the right endpoint, i.e. the
				// staged uNxt row.
				u := sh.uNxt[mst.input*ns : (mst.input+1)*ns]
				for r := 0; r < p; r++ {
					dr := real(d[r])
					yrow := yb[r*ns : (r+1)*ns]
					for s := range yrow {
						yrow[s] += dr * u[s]
					}
				}
			}
		}
		for s := 0; s < ns; s++ {
			y := results[s0+s].Y[i]
			for r := 0; r < p; r++ {
				y[r] = yb[r*ns+s]
			}
		}
		sh.uNow, sh.uNxt = sh.uNxt, sh.uNow
	}
	// Scatter the advanced coordinates back into the members.
	for b := range ref.blocks {
		zrb, zib := sh.zr[b], sh.zi[b]
		for s := 0; s < ns; s++ {
			z := members[s0+s].blocks[b].modal.z
			for k := range z {
				z[k] = complex(zrb[k*ns+s], zib[k*ns+s])
			}
		}
	}
}

// groupJob is one Advance handed to the persistent shard workers.
type groupJob struct {
	n       int
	inputs  []Input
	results []*Result
}

// groupPool runs one persistent goroutine per shard, signaled once per
// Advance — not per step, and not respawned per call.
type groupPool struct {
	start []chan groupJob
	done  chan struct{}
	quit  chan struct{}
	once  sync.Once
}

func (g *StepperGroup) ensurePool() {
	if g.pool != nil {
		return
	}
	pool := &groupPool{done: make(chan struct{}, len(g.shards)), quit: make(chan struct{})}
	members := g.members
	for _, sh := range g.shards {
		start := make(chan groupJob, 1)
		pool.start = append(pool.start, start)
		go func(sh *groupShard) {
			for {
				select {
				case <-pool.quit:
					return
				case job := <-start:
					advanceGroupShard(members, sh, job.n, job.inputs, job.results)
					pool.done <- struct{}{}
				}
			}
		}(sh)
	}
	g.pool = pool
	// Backstop for groups dropped without Close: the workers hold only the
	// member slice and shard buffers, so an unreachable group triggers the
	// cleanup and the goroutines exit.
	runtime.AddCleanup(g, func(p *groupPool) { p.close() }, pool)
}

func (p *groupPool) run(job groupJob) {
	for _, c := range p.start {
		c <- job
	}
	for range p.start {
		<-p.done
	}
}

func (p *groupPool) close() {
	p.once.Do(func() { close(p.quit) })
}
