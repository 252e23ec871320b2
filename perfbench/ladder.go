package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/serve"
	"repro/internal/sim"
)

// ladderReps is how many times each rung runs; rungs are interleaved
// round-robin so drift hits every rung alike, and each reports its median.
const ladderReps = 300

// ladderEntries is the batched sweep every sweep rung serves: four entries on
// the standard 60-point grid, so every rung runs the packed kernel.
var ladderEntries = []serve.Entry{{Row: 0, Col: 0}, {Row: 1, Col: 0}, {Row: 0, Col: 1}, {Row: 1, Col: 1}}

const ladderSteps = 64 // one session chunk

// ladderInput is the drive of every advance rung.
var ladderInput = sim.UniformInput(sim.Step{Amplitude: 1e-3})

// servedModel wraps a freshly reduced ROM as the serving layer's model
// handle, so the evaluator and coalescer rungs run on a reduce workload's
// own ROM.
func servedModel(r *reduced) *serve.Model {
	_, m, p := r.rom.Dims()
	modal, _ := r.modal.ModalCount()
	return &serve.Model{ID: "perfbench", Ports: m, Outputs: p, Blocks: len(r.rom.Blocks),
		ModalBlocks: modal, ROM: r.rom, Modal: r.modal, Packed: r.packed}
}

// runLadder times the same sweep, eval and advance request at each layer it
// crosses — kernel, evaluator, coalescer, HTTP handler — and writes the
// median of each rung into metrics. The difference between adjacent rungs is
// one layer's cost. h may be nil (no server: the handler rungs read 0).
func runLadder(m *serve.Model, h http.Handler, metrics map[string]metric) error {
	eng := serve.NewEngine(0)
	defer eng.Close()
	ev := serve.NewEvaluator(eng, serve.NewFactorCache(0), true)
	co := serve.NewSweepCoalescer(ev)
	ctx := context.Background()
	grid, err := sim.LogGrid(serve.DefaultWMin, serve.DefaultWMax, serve.DefaultSweepPoints)
	if err != nil {
		return err
	}
	ents := make([][2]int, len(ladderEntries))
	for i, e := range ladderEntries {
		ents[i] = [2]int{e.Row, e.Col}
	}
	dst := make([]complex128, len(ents)*len(grid))
	omega := probeOmegas[2]

	kernelStep, err := sim.NewStepper(m.Modal, sim.StepperOptions{Dt: ladderDt})
	if err != nil {
		return err
	}
	a, err := sim.NewStepper(m.Modal, sim.StepperOptions{Dt: ladderDt})
	if err != nil {
		return err
	}
	b, err := sim.NewStepper(m.Modal, sim.StepperOptions{Dt: ladderDt})
	if err != nil {
		return err
	}
	group, err := sim.NewStepperGroup([]*sim.Stepper{a, b}, sim.GroupOptions{})
	if err != nil {
		return err
	}
	defer group.Close()

	type rung struct {
		name string
		call func() error
		per  float64 // divide the call's time by this (per-session cost)
	}
	rungs := []rung{
		{"lti.sweep_kernel_us", func() error { return m.Packed.SweepEntriesInto(dst, ents, grid) }, 1},
		{"serve.evaluator_sweep_us", func() error {
			_, err := ev.SweepEntries(ctx, m, ladderEntries, serve.DefaultWMin, serve.DefaultWMax, serve.DefaultSweepPoints)
			return err
		}, 1},
		{"serve.coalescer_sweep_us", func() error {
			_, err := co.SweepEntries(ctx, m, ladderEntries, serve.DefaultWMin, serve.DefaultWMax, serve.DefaultSweepPoints)
			return err
		}, 1},
		{"lti.eval_kernel_us", func() error { _, err := m.Modal.Eval(complex(0, omega)); return err }, 1},
		{"sim.advance_kernel_us", func() error { _, err := kernelStep.Advance(ladderSteps, ladderInput); return err }, 1},
		{"sim.group_advance_us", func() error {
			_, err := group.Advance(ladderSteps, []sim.Input{ladderInput, ladderInput})
			return err
		}, 2},
	}
	if h != nil {
		sweepBody, _ := json.Marshal(map[string]any{"model": m.ID, "entries": ladderEntries})
		evalBody, _ := json.Marshal(map[string]any{"model": m.ID, "omegas": []float64{omega}})
		sid, err := createSession(h, m.ID)
		if err != nil {
			return err
		}
		advBody, _ := json.Marshal(map[string]any{"steps": ladderSteps, "input": map[string]any{"kind": "step", "amplitude": 1e-3}})
		rungs = append(rungs,
			rung{"serve.handler_sweep_us", func() error { _, err := post(h, "/sweep", sweepBody); return err }, 1},
			rung{"serve.handler_eval_us", func() error { _, err := post(h, "/eval", evalBody); return err }, 1},
			rung{"serve.handler_advance_us", func() error { _, err := post(h, "/session/"+sid+"/advance", advBody); return err }, 1},
		)
	} else {
		for _, name := range []string{"serve.handler_sweep_us", "serve.handler_eval_us", "serve.handler_advance_us"} {
			metrics[name] = metric{0, "us"}
		}
	}

	times := make([]samples, len(rungs))
	for i := 0; i < ladderReps; i++ {
		for k, r := range rungs {
			t0 := time.Now()
			if err := r.call(); err != nil {
				return fmt.Errorf("%s: %w", r.name, err)
			}
			times[k] = append(times[k], time.Duration(float64(time.Since(t0))/r.per))
		}
	}
	for k, r := range rungs {
		metrics[r.name] = metric{us(times[k].median()), "us"}
	}
	return nil
}

// ladderDt is the session step of every advance in the benchmark.
const ladderDt = 1e-11

// post sends one in-process request through the server's handler and
// returns the response body, failing on any non-200 status.
func post(h http.Handler, path string, body []byte) ([]byte, error) {
	return do(h, http.MethodPost, path, body)
}

func do(h http.Handler, method, path string, body []byte) ([]byte, error) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return rec.Body.Bytes(), nil
}

// createSession opens a transient session on the model and returns its id.
func createSession(h http.Handler, model string) (string, error) {
	body, _ := json.Marshal(map[string]any{"model": model, "dt": ladderDt})
	resp, err := post(h, "/session", body)
	if err != nil {
		return "", err
	}
	var info struct {
		Session string `json:"session"`
	}
	if err := json.Unmarshal(resp, &info); err != nil {
		return "", fmt.Errorf("decoding session info: %w", err)
	}
	return info.Session, nil
}
