package serve

import (
	"math"
	"net/http"
	"testing"

	"repro/internal/grid"
	"repro/internal/lti"
	"repro/internal/sim"
)

// TestModalMatchesFactoredAcrossBenchmarks is the acceptance property: on
// every shipped grid benchmark (RLC and RC-only), the modal evaluation must
// agree with the factored (LU) evaluation to ≤1e-9 relative error over the
// standard log frequency grid, with blocks that fail modal preconditions
// transparently falling back to LU.
func TestModalMatchesFactoredAcrossBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every benchmark")
	}
	repo := NewRepository()
	for _, name := range grid.Names() {
		for _, rcOnly := range []bool{false, true} {
			name, rcOnly := name, rcOnly
			label := name
			if rcOnly {
				label += "-rc"
			}
			t.Run(label, func(t *testing.T) {
				scale := 0.05
				if name == grid.Ckt1 {
					scale = 0.15 // ckt1 is small; keep a few dozen ports
				}
				m, _, err := repo.Get(ModelKey{Benchmark: name, Scale: scale, RCOnly: rcOnly})
				if err != nil {
					t.Fatalf("building %s: %v", label, err)
				}
				ms, err := m.ROM.Modalize()
				if err != nil {
					t.Fatalf("Modalize: %v", err)
				}
				modal, fb := ms.ModalCount()
				t.Logf("%s: %d modal blocks, %d fallback", label, modal, fb)
				if modal == 0 {
					t.Errorf("%s: no block modalized", label)
				}
				omegas, err := sim.LogGrid(DefaultWMin, DefaultWMax, 25)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range omegas {
					s := complex(0, w)
					want, err := m.ROM.Eval(s)
					if err != nil {
						t.Fatalf("factored Eval(ω=%g): %v", w, err)
					}
					got, err := ms.Eval(s)
					if err != nil {
						t.Fatalf("modal Eval(ω=%g): %v", w, err)
					}
					if rel := relErr(got.Data, want.Data); rel > 1e-9 {
						t.Fatalf("%s ω=%g: modal vs factored relative error %.3e > 1e-9", label, w, rel)
					}
				}
			})
		}
	}
}

func testModel(t testing.TB, scale float64) *Model {
	t.Helper()
	m, _, err := NewRepository().Get(ModelKey{Benchmark: "ckt1", Scale: scale})
	if err != nil {
		t.Fatalf("building test model: %v", err)
	}
	return m
}

// demoteBlocks swaps m's modal form for a copy in which the blocks idx carry
// no pole–residue form — a partially modal model, as Modalize produces when
// a block's pencil defeats diagonalization. Those blocks then evaluate
// through the inline fallback. Call it before m serves any request.
func demoteBlocks(t testing.TB, m *Model, idx ...int) {
	t.Helper()
	ms := &lti.ModalSystem{BD: m.Modal.BD, Blocks: append([]lti.ModalBlock(nil), m.Modal.Blocks...)}
	for _, i := range idx {
		ms.Blocks[i] = lti.ModalBlock{Input: ms.Blocks[i].Input}
	}
	if err := ms.Validate(); err != nil {
		t.Fatalf("demoted modal form: %v", err)
	}
	m.Modal, m.Packed = ms, ms.Pack()
	m.ModalBlocks, _ = ms.ModalCount()
}

// relErr is ‖got − want‖₂ / ‖want‖₂.
func relErr(got, want []complex128) float64 {
	var num, den float64
	for i := range want {
		d := got[i] - want[i]
		num += real(d)*real(d) + imag(d)*imag(d)
		den += real(want[i])*real(want[i]) + imag(want[i])*imag(want[i])
	}
	if den == 0 {
		den = 1
	}
	return math.Sqrt(num / den)
}

func sweepValues(pts []SweepPoint) []complex128 {
	out := make([]complex128, len(pts))
	for k, p := range pts {
		out[k] = complex(p.Re, p.Im)
	}
	return out
}

// TestPartiallyModalServedEndToEnd serves a model with two demoted blocks
// through every HTTP route. Each answer must match the LU reference
// (ROM.Eval) to ≤1e-9 and be bit-identical to a direct call of the kernel
// the route runs: ModalSystem for single sweeps and evals, ModalPacked for
// multi-entry sweeps, sim.NewStepper for transients and sessions — including
// a session resumed from its snapshot on a second server.
func TestPartiallyModalServedEndToEnd(t *testing.T) {
	dir := t.TempDir()
	srv1, ts1, _ := newStoreServer(t, dir, 1)
	info := reduceTestModel(t, ts1)
	m, err := srv1.Repo().Lookup(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	last := len(m.ROM.Blocks) - 1
	demoteBlocks(t, m, 0, last)
	if m.ModalBlocks != m.Blocks-2 {
		t.Fatalf("demotion left %d/%d blocks modal", m.ModalBlocks, m.Blocks)
	}
	// The demoted blocks' columns carry fallback work; entries read them.
	c0, c1 := m.ROM.Blocks[0].Input, m.ROM.Blocks[last].Input
	entries := []Entry{{Row: 0, Col: c0}, {Row: 1, Col: c1}, {Row: 2, Col: c0}}
	const wMin, wMax, points = 1e5, 1e15, 30
	grid, err := sim.LogGrid(wMin, wMax, points)
	if err != nil {
		t.Fatal(err)
	}
	ref := make([][]complex128, len(entries)) // LU reference per entry
	for i := range ref {
		ref[i] = make([]complex128, points)
	}
	for k, w := range grid {
		h, err := m.ROM.Eval(complex(0, w))
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range entries {
			ref[i][k] = h.At(e.Row, e.Col)
		}
	}
	t.Run("single sweep", func(t *testing.T) {
		e := entries[0]
		got := decode[struct {
			Points []SweepPoint `json:"points"`
		}](t, postJSON(t, ts1.URL+"/sweep", sweepRequest{Model: info.ID, Row: e.Row, Col: e.Col, WMin: wMin, WMax: wMax, Points: points}))
		want := make([]complex128, points)
		if err := m.Modal.SweepEntryInto(want, e.Row, e.Col, grid); err != nil {
			t.Fatal(err)
		}
		vals := sweepValues(got.Points)
		for k := range want {
			if vals[k] != want[k] {
				t.Fatalf("point %d: served %v, ModalSystem %v", k, vals[k], want[k])
			}
		}
		if rel := relErr(vals, ref[0]); rel > 1e-9 {
			t.Fatalf("served sweep vs ROM.Eval: relative error %.3e", rel)
		}
	})

	t.Run("multi-entry sweep", func(t *testing.T) {
		got := decode[struct {
			Entries []EntrySweep `json:"entries"`
		}](t, postJSON(t, ts1.URL+"/sweep", sweepRequest{Model: info.ID, Entries: entries, WMin: wMin, WMax: wMax, Points: points}))
		ents := make([][2]int, len(entries))
		for i, e := range entries {
			ents[i] = [2]int{e.Row, e.Col}
		}
		want := make([]complex128, len(entries)*points)
		if err := m.Packed.SweepEntriesInto(want, ents, grid); err != nil {
			t.Fatal(err)
		}
		for i := range entries {
			vals := sweepValues(got.Entries[i].Points)
			for k, v := range vals {
				if v != want[i*points+k] {
					t.Fatalf("entry %d point %d: served %v, ModalPacked %v", i, k, v, want[i*points+k])
				}
			}
			if rel := relErr(vals, ref[i]); rel > 1e-9 {
				t.Fatalf("entry %d vs ROM.Eval: relative error %.3e", i, rel)
			}
		}
	})

	t.Run("eval", func(t *testing.T) {
		omegas := []float64{1e6, 1e9, 1e12}
		got := decode[evalResponse](t, postJSON(t, ts1.URL+"/eval", evalRequest{Model: info.ID, Omegas: omegas}))
		for k, w := range omegas {
			s := complex(0, w)
			want, err := m.Modal.Eval(s)
			if err != nil {
				t.Fatal(err)
			}
			lu, err := m.ROM.Eval(s)
			if err != nil {
				t.Fatal(err)
			}
			served := make([]complex128, len(want.Data))
			for r := 0; r < want.Rows; r++ {
				for c := 0; c < want.Cols; c++ {
					h := got.Points[k].H[r][c]
					served[r*want.Cols+c] = complex(h[0], h[1])
				}
			}
			for i := range served {
				if served[i] != want.Data[i] {
					t.Fatalf("ω=%g entry %d: served %v, ModalSystem %v", w, i, served[i], want.Data[i])
				}
			}
			if rel := relErr(served, lu.Data); rel > 1e-9 {
				t.Fatalf("ω=%g: served eval vs ROM.Eval relative error %.3e", w, rel)
			}
		}
	})

	input := sourceSpec{Kind: "pulse", Low: 0, High: 1e-3, Delay: 2e-10, Rise: 1e-10, Fall: 1e-10, Width: 5e-10, Period: 2e-9}
	const dt, steps = 1e-10, 40
	// direct integrates the reference rows: t=0, then the given chunks.
	direct := func(t *testing.T, chunks ...int) [][]float64 {
		st, err := sim.NewStepper(m.Modal, sim.StepperOptions{Dt: dt})
		if err != nil {
			t.Fatal(err)
		}
		in, err := buildInput(&input, nil, m.Ports)
		if err != nil {
			t.Fatal(err)
		}
		y0, err := st.Output(in)
		if err != nil {
			t.Fatal(err)
		}
		rows := [][]float64{y0}
		for _, n := range chunks {
			res, err := st.Advance(n, in)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, res.Y...)
		}
		return rows
	}
	sameRows := func(t *testing.T, got []transientRow, want [][]float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%d rows, want %d", len(got), len(want))
		}
		for k := range want {
			for r := range want[k] {
				if got[k].Y[r] != want[k][r] {
					t.Fatalf("row %d output %d: served %g, stepper %g", k, r, got[k].Y[r], want[k][r])
				}
			}
		}
	}

	t.Run("transient", func(t *testing.T) {
		got := decode[struct {
			Y [][]float64 `json:"y"`
		}](t, postJSON(t, ts1.URL+"/transient", transientRequest{Model: info.ID, Dt: dt, T: dt * steps, Input: input}))
		rows := make([]transientRow, len(got.Y))
		for k, y := range got.Y {
			rows[k].Y = y
		}
		sameRows(t, rows, direct(t, steps))
	})

	t.Run("session snapshot restore", func(t *testing.T) {
		sess := decode[sessionInfo](t, postJSON(t, ts1.URL+"/session", sessionCreateRequest{Model: info.ID, Dt: dt}))
		rows := advanceSession(t, ts1.URL, sess.Session, 15, input)

		// A second server over the same store loads the model from disk
		// (fully modal again); demote the same blocks before resuming, so
		// the snapshot's implicit block states fit.
		srv2, ts2, _ := newStoreServer(t, dir, 1)
		m2, _, err := srv2.Repo().Get(m.Key)
		if err != nil {
			t.Fatal(err)
		}
		demoteBlocks(t, m2, 0, last)
		resp := postJSON(t, ts2.URL+"/session", sessionCreateRequest{Resume: sess.Session})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("resume status = %d", resp.StatusCode)
		}
		resp.Body.Close()
		rows = append(rows, advanceSession(t, ts2.URL, sess.Session, 25, input)...)
		sameRows(t, rows, direct(t, 15, 25))
	})
}
