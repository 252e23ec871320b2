package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"math/cmplx"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// TestSweepEntriesMatchesSingle pins the batched multi-entry sweep against
// per-entry single sweeps and the LU reference (ROM.Eval), on a fully modal
// model and on one with two blocks demoted to the inline fallback.
func TestSweepEntriesMatchesSingle(t *testing.T) {
	for _, partial := range []bool{false, true} {
		name := "modal"
		if partial {
			name = "partially_modal"
		}
		t.Run(name, func(t *testing.T) {
			srv := New(Config{Workers: 4})
			defer srv.Close()
			m, _, err := srv.Repo().Get(ModelKey{Benchmark: "ckt1", Scale: 0.1})
			if err != nil {
				t.Fatal(err)
			}
			if partial {
				demoteBlocks(t, m, 0, 2)
			}
			entries := []Entry{{0, 0}, {1, 0}, {0, 2}, {2, 2}, {1, 1}}
			sweeps, err := srv.ev.SweepEntries(context.Background(), m, entries, 1e6, 1e12, 25)
			if err != nil {
				t.Fatalf("SweepEntries: %v", err)
			}
			if len(sweeps) != len(entries) {
				t.Fatalf("got %d sweeps, want %d", len(sweeps), len(entries))
			}
			for i, e := range entries {
				one, err := srv.ev.SweepEntries(context.Background(), m, []Entry{e}, 1e6, 1e12, 25)
				if err != nil {
					t.Fatal(err)
				}
				single := one[0].Points
				if sweeps[i].Row != e.Row || sweeps[i].Col != e.Col {
					t.Fatalf("sweep %d labeled (%d,%d), want (%d,%d)", i, sweeps[i].Row, sweeps[i].Col, e.Row, e.Col)
				}
				for k := range single {
					a := complex(sweeps[i].Points[k].Re, sweeps[i].Points[k].Im)
					b := complex(single[k].Re, single[k].Im)
					if d := cmplx.Abs(a - b); d > 1e-12*(1+cmplx.Abs(b)) {
						t.Fatalf("entry (%d,%d) point %d: batched %v vs single %v", e.Row, e.Col, k, a, b)
					}
					h, err := m.ROM.Eval(complex(0, single[k].Omega))
					if err != nil {
						t.Fatal(err)
					}
					if ref := h.At(e.Row, e.Col); cmplx.Abs(a-ref) > 1e-9*(1+cmplx.Abs(ref)) {
						t.Fatalf("entry (%d,%d) point %d: served %v vs ROM.Eval %v", e.Row, e.Col, k, a, ref)
					}
				}
			}
		})
	}
}

// TestSweepEntriesAgreeAcrossPaths: a served batched sweep must match the LU
// reference (ROM.Eval) at every point.
func TestSweepEntriesAgreeAcrossPaths(t *testing.T) {
	srv := New(Config{Workers: 2})
	defer srv.Close()
	m, _, err := srv.Repo().Get(ModelKey{Benchmark: "ckt2", Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	entries := []Entry{{0, 0}, {1, 1}, {0, 1}}
	modal, err := srv.ev.SweepEntries(context.Background(), m, entries, 1e5, 1e15, 40)
	if err != nil {
		t.Fatal(err)
	}
	for k := range modal[0].Points {
		h, err := m.ROM.Eval(complex(0, modal[0].Points[k].Omega))
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range entries {
			a := complex(modal[i].Points[k].Re, modal[i].Points[k].Im)
			b := h.At(e.Row, e.Col)
			if d := cmplx.Abs(a - b); d > 1e-9*(1+cmplx.Abs(b)) {
				t.Fatalf("entry %d point %d: modal %v vs ROM.Eval %v", i, k, a, b)
			}
		}
	}
}

// TestSweepEntriesHTTP exercises the /sweep entries field end to end, in
// JSON and NDJSON framing, including the response budget.
func TestSweepEntriesHTTP(t *testing.T) {
	_, ts := newTestServer(t)
	info := reduceTestModel(t, ts)

	resp := postJSON(t, ts.URL+"/sweep", sweepRequest{
		Model:   info.ID,
		Entries: []Entry{{Row: 0, Col: 0}, {Row: 1, Col: 1}},
		WMin:    1e6, WMax: 1e12, Points: 13,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/sweep entries status = %d", resp.StatusCode)
	}
	out := decode[struct {
		Model   string       `json:"model"`
		Entries []EntrySweep `json:"entries"`
	}](t, resp)
	if len(out.Entries) != 2 {
		t.Fatalf("got %d entry sweeps, want 2", len(out.Entries))
	}
	for _, es := range out.Entries {
		if len(es.Points) != 13 {
			t.Fatalf("entry (%d,%d) has %d points, want 13", es.Row, es.Col, len(es.Points))
		}
	}

	// NDJSON: one EntrySweep per line.
	resp = postJSON(t, ts.URL+"/sweep", sweepRequest{
		Model:   info.ID,
		Entries: []Entry{{Row: 0, Col: 0}, {Row: 1, Col: 0}, {Row: 2, Col: 0}},
		WMin:    1e6, WMax: 1e12, Points: 7, Format: "ndjson",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/sweep entries ndjson status = %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	rows := 0
	for sc.Scan() {
		var es EntrySweep
		if err := json.Unmarshal(sc.Bytes(), &es); err != nil {
			t.Fatalf("row %d: %v", rows, err)
		}
		if len(es.Points) != 7 {
			t.Fatalf("row %d has %d points", rows, len(es.Points))
		}
		rows++
	}
	resp.Body.Close()
	if rows != 3 {
		t.Fatalf("streamed %d entry rows, want 3", rows)
	}

	// Out-of-range entry → 400.
	resp = postJSON(t, ts.URL+"/sweep", sweepRequest{
		Model: info.ID, Entries: []Entry{{Row: 0, Col: 9999}}, WMin: 1e6, WMax: 1e12, Points: 5,
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range entry status = %d, want 400", resp.StatusCode)
	}
}

func TestSweepEntriesBudget(t *testing.T) {
	srv := New(Config{Workers: 2, MaxEvalEntries: 50})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	info := reduceTestModel(t, ts)
	resp := postJSON(t, ts.URL+"/sweep", sweepRequest{
		Model:   info.ID,
		Entries: []Entry{{0, 0}, {1, 0}, {2, 0}},
		WMin:    1e6, WMax: 1e12, Points: 20, // 60 values > 50
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-budget batched sweep status = %d, want 400", resp.StatusCode)
	}
}

// TestModalServeStress hammers one fully modal model with concurrent mixed
// traffic — single sweeps, batched sweeps, full-matrix evals — and checks
// under -race that the lock-free modal path is in fact data-race-free and
// that no evaluation factored a pencil.
func TestModalServeStress(t *testing.T) {
	srv := New(Config{Workers: 4})
	defer srv.Close()
	m, _, err := srv.Repo().Get(ModelKey{Benchmark: "ckt1", Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if m.ModalBlocks != m.Blocks {
		t.Fatalf("test model not fully modal (%d/%d blocks)", m.ModalBlocks, m.Blocks)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*3)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 10; it++ {
				switch (g + it) % 3 {
				case 0:
					if _, err := srv.ev.SweepEntries(context.Background(), m, []Entry{{Row: it % m.Outputs, Col: it % m.Ports}}, 1e5, 1e15, 30); err != nil {
						errs <- err
						return
					}
				case 1:
					if _, err := srv.ev.SweepEntries(context.Background(), m, []Entry{{0, 0}, {it % m.Outputs, it % m.Ports}}, 1e5, 1e15, 15); err != nil {
						errs <- err
						return
					}
				case 2:
					if _, err := srv.ev.EvalBatch(context.Background(), m, []float64{1e8, 1e9 * float64(1+it)}); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if srv.ev.ModalEvals() == 0 {
		t.Fatal("stress served no evaluations")
	}
}
