package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dense"
	"repro/internal/lti"
	"repro/internal/sim"
)

// The response structs below describe the wire format of the numeric routes
// as encoding/json renders them. The server no longer builds them — its
// appenders write the bytes directly — so the golden tests encode them with
// encoding/json and require the served bytes to be equal.

// evalResponse holds, per frequency, the full p×m transfer matrix as
// H[row][col] = [re, im].
type evalResponse struct {
	Model  string       `json:"model"`
	Points []evalMatrix `json:"points"`
}

type evalMatrix struct {
	Omega float64        `json:"omega"`
	H     [][][2]float64 `json:"h"`
}

// transientRow is one NDJSON row of a transient or session stream.
type transientRow struct {
	T float64   `json:"t"`
	Y []float64 `json:"y"`
}

// legacyEval stages mats the way the /eval handler did before the appenders.
func legacyEval(id string, omegas []float64, mats []*dense.Mat[complex128]) evalResponse {
	resp := evalResponse{Model: id, Points: make([]evalMatrix, len(mats))}
	for k, h := range mats {
		em := evalMatrix{Omega: omegas[k], H: make([][][2]float64, h.Rows)}
		for i := 0; i < h.Rows; i++ {
			row := make([][2]float64, h.Cols)
			for j := 0; j < h.Cols; j++ {
				z := h.At(i, j)
				row[j] = [2]float64{real(z), imag(z)}
			}
			em.H[i] = row
		}
		resp.Points[k] = em
	}
	return resp
}

// encodeJSON renders values as json.Encoder does on a response: one document
// per value, each followed by a newline.
func encodeJSON(t testing.TB, vs ...any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, v := range vs {
		if err := enc.Encode(v); err != nil {
			t.Fatalf("encoding/json: %v", err)
		}
	}
	return buf.Bytes()
}

// edgeFloats are the values where encoding/json's formatting changes: signed
// zeros, subnormals, both sides of the 'f'/'e' cut-offs, and the extremes.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308,
	1e-7, -1e-7, 9.999999999999999e-7, 1e-6, 1.0000000000000002e-6,
	0.1, 1, 123456789, 1e20, 9.999999999999999e20, 1e21, -1e21, 1.5e300,
	math.MaxFloat64, -math.MaxFloat64, 1e-10, 1.234e-100,
}

// stepperRows reproduces a session's stream: the t = 0 row, then chunks.
func stepperRows(t testing.TB, m *Model, dt float64, in sim.Input, chunks ...int) ([]float64, [][]float64) {
	t.Helper()
	st, err := sim.NewStepper(m.Modal, sim.StepperOptions{Dt: dt})
	if err != nil {
		t.Fatal(err)
	}
	y0, err := st.Output(in)
	if err != nil {
		t.Fatal(err)
	}
	ts, ys := []float64{st.Time()}, [][]float64{y0}
	for _, n := range chunks {
		res, err := st.Advance(n, in)
		if err != nil {
			t.Fatal(err)
		}
		ts, ys = append(ts, res.T...), append(ys, res.Y...)
	}
	return ts, ys
}

// TestAppendersMatchEncodingJSON pins every appender to encoding/json on
// synthetic values built from the edge floats, with a model ID that needs
// HTML escaping (real IDs never do: grid.Benchmark builds only ckt1..ckt5).
func TestAppendersMatchEncodingJSON(t *testing.T) {
	m := &Model{ID: `ckt<1>&"x"`}
	m.idJSON = jsonString(m.ID)
	rng := rand.New(rand.NewSource(1))
	val := func() float64 {
		if rng.Intn(3) == 0 {
			return edgeFloats[rng.Intn(len(edgeFloats))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	}

	const p, q = 54, 7
	omegas := []float64{1e5, 3.2e9, 1e21}
	mats := make([]*dense.Mat[complex128], len(omegas))
	for k := range mats {
		mats[k] = dense.NewMat[complex128](p, q)
		for i := range mats[k].Data {
			mats[k].Data[i] = complex(val(), val())
		}
	}
	pts := make([]SweepPoint, 9)
	for k := range pts {
		pts[k] = SweepPoint{Omega: val(), Re: val(), Im: val(), Mag: val()}
	}
	sweeps := []EntrySweep{{Row: 3, Col: 0, Points: pts}, {Row: 53, Col: 6, Points: pts[:2]}, {Row: 1, Col: 1}}
	ts := []float64{0, 1e-10, 2e-10}
	ys := [][]float64{make([]float64, p), make([]float64, p), nil}
	for _, y := range ys {
		for i := range y {
			y[i] = val()
		}
	}

	cases := []struct {
		name string
		app  func(b []byte) ([]byte, error)
		want any
	}{
		{"eval", func(b []byte) ([]byte, error) { return appendEval(b, m, omegas, mats) },
			legacyEval(m.ID, omegas, mats)},
		{"sweep", func(b []byte) ([]byte, error) { return appendSweep(b, m, pts) },
			map[string]any{"model": m.ID, "points": pts}},
		{"sweep nil points", func(b []byte) ([]byte, error) { return appendSweep(b, m, nil) },
			map[string]any{"model": m.ID, "points": []SweepPoint(nil)}},
		{"sweep entries", func(b []byte) ([]byte, error) { return appendSweepEntries(b, m, sweeps) },
			map[string]any{"model": m.ID, "entries": sweeps}},
		{"entry sweep", func(b []byte) ([]byte, error) { return appendEntrySweep(b, sweeps[0]) }, sweeps[0]},
		{"sweep point", func(b []byte) ([]byte, error) { return appendSweepPoint(b, pts[0]) }, pts[0]},
		{"transient", func(b []byte) ([]byte, error) { return appendTransient(b, m, ts, ys) },
			map[string]any{"model": m.ID, "t": ts, "y": ys}},
		{"transient nil", func(b []byte) ([]byte, error) { return appendTransient(b, m, nil, nil) },
			map[string]any{"model": m.ID, "t": []float64(nil), "y": [][]float64(nil)}},
		{"transient row", func(b []byte) ([]byte, error) { return appendTransientRow(b, ts[1], ys[1]) },
			transientRow{T: ts[1], Y: ys[1]}},
	}
	for _, c := range cases {
		got, err := c.app([]byte("prefix"))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := encodeJSON(t, c.want)
		if got := append(got[len("prefix"):], '\n'); !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %.300s\nwant %.300s", c.name, got, want)
		}
	}
}

// TestNumericRoutesGolden serves a 54-output model through every numeric
// route and format and requires the bytes encoding/json writes for the same
// results, computed directly from the model.
func TestNumericRoutesGolden(t *testing.T) {
	srv, ts := newTestServer(t)
	info := decode[reduceResponse](t, postJSON(t, ts.URL+"/reduce", ModelKey{Benchmark: "ckt2", Scale: 0.5}))
	m, err := srv.Repo().Lookup(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if m.Outputs != 54 {
		t.Fatalf("test model has %d outputs, want 54", m.Outputs)
	}
	ctx := context.Background()
	body := func(t *testing.T, path string, req any) []byte {
		t.Helper()
		resp := postJSON(t, ts.URL+path, req)
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d, %v: %s", path, resp.StatusCode, err, b)
		}
		return b
	}
	same := func(t *testing.T, got, want []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			n := 0
			for n < len(got) && n < len(want) && got[n] == want[n] {
				n++
			}
			t.Fatalf("served %d bytes, encoding/json %d; first difference at byte %d:\n got …%.120s\nwant …%.120s",
				len(got), len(want), n, got[n:], want[n:])
		}
	}

	t.Run("eval", func(t *testing.T) {
		omegas := []float64{1e5, 2.5e9, 1e15}
		mats := make([]*dense.Mat[complex128], len(omegas))
		for k, w := range omegas {
			if mats[k], err = m.Modal.Eval(complex(0, w)); err != nil {
				t.Fatal(err)
			}
		}
		same(t, body(t, "/eval", evalRequest{Model: m.ID, Omegas: omegas}), encodeJSON(t, legacyEval(m.ID, omegas, mats)))
	})

	entries := []Entry{{Row: 0, Col: 0}, {Row: 53, Col: 17}, {Row: 20, Col: 53}}
	for _, format := range []string{"json", "ndjson"} {
		t.Run("sweep "+format, func(t *testing.T) {
			sweeps, err := srv.sweeps.SweepEntries(ctx, m, entries[1:2], DefaultWMin, DefaultWMax, 80)
			if err != nil {
				t.Fatal(err)
			}
			pts := sweeps[0].Points
			want := encodeJSON(t, map[string]any{"model": m.ID, "points": pts})
			if format == "ndjson" {
				want = encodeJSON(t, anySlice(pts)...)
			}
			same(t, body(t, "/sweep", sweepRequest{Model: m.ID, Row: 53, Col: 17, Points: 80, Format: format}), want)
		})
		t.Run("batched sweep "+format, func(t *testing.T) {
			sweeps, err := srv.sweeps.SweepEntries(ctx, m, entries, DefaultWMin, DefaultWMax, 40)
			if err != nil {
				t.Fatal(err)
			}
			want := encodeJSON(t, map[string]any{"model": m.ID, "entries": sweeps})
			if format == "ndjson" {
				want = encodeJSON(t, anySlice(sweeps)...)
			}
			same(t, body(t, "/sweep", sweepRequest{Model: m.ID, Entries: entries, Points: 40, Format: format}), want)
		})
		t.Run("transient "+format, func(t *testing.T) {
			const dt, steps = 1e-10, 150
			src := sourceSpec{Kind: "sine", Amplitude: 1e-3, Freq: 1e8}
			in, err := buildInput(&src, nil, m.Ports)
			if err != nil {
				t.Fatal(err)
			}
			res, err := srv.ev.Transient(ctx, m, sim.TransientOptions{Dt: dt, T: dt * steps, Input: in})
			if err != nil {
				t.Fatal(err)
			}
			want := encodeJSON(t, map[string]any{"model": m.ID, "t": res.T, "y": res.Y})
			if format == "ndjson" {
				rows := make([]any, len(res.T))
				for i := range rows {
					rows[i] = transientRow{T: res.T[i], Y: res.Y[i]}
				}
				want = encodeJSON(t, rows...)
			}
			same(t, body(t, "/transient", transientRequest{Model: m.ID, Dt: dt, T: dt * steps, Input: src, Format: format}), want)
		})
	}

	t.Run("session advance", func(t *testing.T) {
		const dt = 1e-10
		src := sourceSpec{Kind: "step", Amplitude: 1e-3}
		in, err := buildInput(&src, nil, m.Ports)
		if err != nil {
			t.Fatal(err)
		}
		tsRef, ysRef := stepperRows(t, m, dt, in, sessionChunkSteps, 36)
		rows := make([]any, len(tsRef))
		for i := range rows {
			rows[i] = transientRow{T: tsRef[i], Y: ysRef[i]}
		}
		sess := decode[sessionInfo](t, postJSON(t, ts.URL+"/session", sessionCreateRequest{Model: m.ID, Dt: dt}))
		got := body(t, "/session/"+sess.Session+"/advance", sessionAdvanceRequest{Steps: sessionChunkSteps + 36, Input: src})
		same(t, got, encodeJSON(t, rows...))
	})
}

func anySlice[T any](v []T) []any {
	out := make([]any, len(v))
	for i := range v {
		out[i] = v[i]
	}
	return out
}

// poisonModal swaps m's modal form for a copy whose block blk has been
// passed through edit — a residue row set to NaN, a pole made unstable — so
// the served numbers turn non-finite. Call it before m serves any request.
func poisonModal(t testing.TB, m *Model, blk int, edit func(mb *lti.ModalBlock)) {
	t.Helper()
	ms := &lti.ModalSystem{BD: m.Modal.BD, Blocks: append([]lti.ModalBlock(nil), m.Modal.Blocks...)}
	mb := &ms.Blocks[blk]
	if !mb.Modal {
		t.Fatalf("block %d has no modal form to poison", blk)
	}
	mb.Poles = append([]complex128(nil), mb.Poles...)
	r := *mb.R
	r.Data = append([]complex128(nil), r.Data...)
	mb.R = &r
	edit(mb)
	if err := ms.Validate(); err != nil {
		t.Fatalf("poisoned modal form: %v", err)
	}
	m.Modal, m.Packed = ms, ms.Pack()
}

// nanResidues sets residue row 0 of the block to NaN: every entry of the
// block's input column turns NaN at every frequency and time.
func nanResidues(mb *lti.ModalBlock) {
	for j := 0; j < mb.R.Cols; j++ {
		mb.R.Data[j] = complex(math.NaN(), 0)
	}
}

// TestNonFiniteBufferedResponse500: a NaN in a buffered numeric response
// answers 500 with an error naming the model — never an empty 200.
func TestNonFiniteBufferedResponse500(t *testing.T) {
	srv, ts := newTestServer(t)
	info := reduceTestModel(t, ts)
	m, err := srv.Repo().Lookup(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	poisonModal(t, m, 0, nanResidues)
	col := m.Modal.Blocks[0].Input
	for _, c := range []struct {
		path string
		req  any
	}{
		{"/eval", evalRequest{Model: m.ID, Omegas: []float64{1e9}}},
		{"/sweep", sweepRequest{Model: m.ID, Row: 0, Col: col, Points: 10}},
		{"/sweep", sweepRequest{Model: m.ID, Entries: []Entry{{Row: 0, Col: col}}, Points: 10}},
		{"/transient", transientRequest{Model: m.ID, Dt: 1e-10, T: 1e-8, Input: sourceSpec{Kind: "dc", Value: 1e-3}}},
	} {
		resp := postJSON(t, ts.URL+c.path, c.req)
		var out struct {
			Error string `json:"error"`
		}
		err := json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError || err != nil ||
			!strings.Contains(out.Error, m.ID) || !strings.Contains(out.Error, "unsupported value: NaN") {
			t.Errorf("%s %+v: status %d, error %q (%v); want 500 naming %s and the NaN",
				c.path, c.req, resp.StatusCode, out.Error, err, m.ID)
		}
	}
}

// readLines returns the NDJSON lines of a 200 stream.
func readLines(t *testing.T, resp *http.Response) []string {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// wantTruncated checks a stream is the rows good, then the row-encoding
// truncation marker, and nothing else.
func wantTruncated(t *testing.T, lines []string, good []any) {
	t.Helper()
	if len(lines) != len(good)+1 {
		t.Fatalf("stream has %d lines, want %d good rows and the marker", len(lines), len(good))
	}
	for i, g := range good {
		if want := strings.TrimSuffix(string(encodeJSON(t, g)), "\n"); lines[i] != want {
			t.Fatalf("row %d = %.120s, want %.120s", i, lines[i], want)
		}
	}
	var marker map[string]string
	if err := json.Unmarshal([]byte(lines[len(good)]), &marker); err != nil ||
		len(marker) != 1 || !strings.HasPrefix(marker["error"], "row encoding failed: json: unsupported value: ") {
		t.Fatalf("last line %q is not the row-encoding truncation marker", lines[len(good)])
	}
}

// divergeModel moves one pole of m far into the right half-plane, so a
// transient's outputs overflow to ±Inf/NaN a few steps in. It returns the
// reference rows and the index of the first non-finite one.
func divergeModel(t *testing.T, m *Model, dt float64, in sim.Input) ([]float64, [][]float64, int) {
	t.Helper()
	poisonModal(t, m, 0, func(mb *lti.ModalBlock) { mb.Poles[0] = complex(1e12, imag(mb.Poles[0])) })
	ts, ys := stepperRows(t, m, dt, in, sessionChunkSteps, sessionChunkSteps)
	for k, y := range ys {
		for _, v := range y {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				if k < 2 {
					t.Fatalf("row %d already non-finite; the test needs good rows first", k)
				}
				return ts, ys, k
			}
		}
	}
	t.Fatal("the unstable pole never drove an output non-finite")
	return nil, nil, 0
}

// TestStreamTruncationMarker: an NDJSON /sweep, /transient or session
// advance whose rows stop encoding ends with the rows before the bad one,
// then the truncation marker — a client can tell it from a complete stream.
func TestStreamTruncationMarker(t *testing.T) {
	t.Run("sweep", func(t *testing.T) {
		srv, ts := newTestServer(t)
		m, err := srv.Repo().Lookup(reduceTestModel(t, ts).ID)
		if err != nil {
			t.Fatal(err)
		}
		poisonModal(t, m, 0, nanResidues)
		bad := m.Modal.Blocks[0].Input
		good := (bad + 1) % m.Ports
		entries := []Entry{{Row: 0, Col: good}, {Row: 0, Col: bad}}
		sweeps, err := srv.sweeps.SweepEntries(context.Background(), m, entries, DefaultWMin, DefaultWMax, 12)
		if err != nil {
			t.Fatal(err)
		}
		wantTruncated(t, readLines(t, postJSON(t, ts.URL+"/sweep", sweepRequest{Model: m.ID,
			Entries: entries, Points: 12, Format: "ndjson"})),
			anySlice(sweeps[:1]))
		wantTruncated(t, readLines(t, postJSON(t, ts.URL+"/sweep", sweepRequest{Model: m.ID,
			Row: 0, Col: bad, Points: 12, Format: "ndjson"})), nil)
	})

	const dt = 1e-10
	src := sourceSpec{Kind: "step", Amplitude: 1e-3}
	rowsOf := func(ts []float64, ys [][]float64, n int) []any {
		out := make([]any, n)
		for i := range out {
			out[i] = transientRow{T: ts[i], Y: ys[i]}
		}
		return out
	}

	t.Run("transient", func(t *testing.T) {
		srv, ts := newTestServer(t)
		m, err := srv.Repo().Lookup(reduceTestModel(t, ts).ID)
		if err != nil {
			t.Fatal(err)
		}
		in, _ := buildInput(&src, nil, m.Ports)
		tsRef, ysRef, k := divergeModel(t, m, dt, in)
		wantTruncated(t, readLines(t, postJSON(t, ts.URL+"/transient", transientRequest{Model: m.ID,
			Dt: dt, T: dt * 2 * sessionChunkSteps, Input: src, Format: "ndjson"})),
			rowsOf(tsRef, ysRef, k))
	})

	t.Run("session advance", func(t *testing.T) {
		srv, ts := newTestServer(t)
		m, err := srv.Repo().Lookup(reduceTestModel(t, ts).ID)
		if err != nil {
			t.Fatal(err)
		}
		in, _ := buildInput(&src, nil, m.Ports)
		tsRef, ysRef, k := divergeModel(t, m, dt, in)
		si := decode[sessionInfo](t, postJSON(t, ts.URL+"/session", sessionCreateRequest{Model: m.ID, Dt: dt}))
		wantTruncated(t, readLines(t, postJSON(t, ts.URL+"/session/"+si.Session+"/advance",
			sessionAdvanceRequest{Steps: 2 * sessionChunkSteps, Input: src})),
			rowsOf(tsRef, ysRef, k))
		sess, err := srv.Sessions().Get(si.Session)
		if err != nil {
			t.Fatal(err)
		}
		if got := sess.rows.Load(); got != int64(k) {
			t.Fatalf("session counted %d rows, %d were written", got, k)
		}
	})
}

// TestAppendAllocs: appending a 64×51 advance chunk or a 51×51 /eval matrix
// into a buffer with room for it allocates nothing. (//pgmor:noalloc cannot
// annotate the appenders: strconv is on its denylist.)
func TestAppendAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ts := make([]float64, sessionChunkSteps)
	ys := make([][]float64, sessionChunkSteps)
	for i := range ys {
		ts[i] = float64(i) * 1e-10
		ys[i] = make([]float64, 51)
		for j := range ys[i] {
			ys[i][j] = rng.NormFloat64() * 1e-3
		}
	}
	h := dense.NewMat[complex128](51, 51)
	for i := range h.Data {
		h.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	buf := make([]byte, 0, 1<<20)
	for name, f := range map[string]func(){
		"advance chunk": func() {
			appendLines(buf, 0, len(ts), func(b []byte, i int) ([]byte, error) { return appendTransientRow(b, ts[i], ys[i]) })
		},
		"eval matrix": func() { appendEvalPoint(buf, 1e9, h) },
	} {
		if n := testing.AllocsPerRun(20, f); n != 0 {
			t.Errorf("%s: %v allocs per append, want 0", name, n)
		}
	}
}

// FuzzAppendFloat: for every float64 bit pattern, appendFloat writes exactly
// encoding/json's bytes, or rejects NaN and ±Inf with encoding/json's error.
// The seeds, which also run in every plain go test, are the edge floats.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range append(edgeFloats, math.NaN(), math.Inf(1), math.Inf(-1)) {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		got, err := appendFloat([]byte("x"), v)
		want, jerr := json.Marshal(v)
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0):
			var uve *json.UnsupportedValueError
			if !errors.As(err, &uve) || jerr == nil || err.Error() != jerr.Error() || string(got) != "x" {
				t.Fatalf("appendFloat(%v) = %q, %v; want rejection like encoding/json's %v", v, got, err, jerr)
			}
		case err != nil || jerr != nil || !bytes.Equal(got[1:], want):
			t.Fatalf("appendFloat(%v) = %q, %v; encoding/json %q, %v", v, got[1:], err, want, jerr)
		}
	})
}

// FuzzDecodeBody: arbitrary bytes never panic decodeBody. Each input decodes
// into the sweep, eval and advance request structs, or fails with the 400 or
// 413 decodeBody maps.
func FuzzDecodeBody(f *testing.F) {
	for _, seed := range []string{
		`{"model":"ckt1-0.1-l6-s01e09","row":0,"col":1,"points":60,"format":"ndjson"}`,
		`{"benchmark":"ckt1","scale":0.25,"entries":[{"row":0,"col":0},{"row":1,"col":2}],"wmin":1e5,"wmax":1e15}`,
		`{"model":"m","omegas":[1e9,2.5e10]}`,
		`{"steps":64,"input":{"kind":"pwl","t":[0,1e-9],"v":[0,1e-3]},"ports":[0,3]}`,
		`{"model":"m"} {"model":"n"}`,
		`{"unknown":1}`,
		`{"omegas":[1e999]}`,
		`[`,
		``,
	} {
		f.Add([]byte(seed))
	}
	s := &Server{cfg: Config{MaxBodyBytes: 256}}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, v := range []any{&sweepRequest{}, &evalRequest{}, &sessionAdvanceRequest{}} {
			r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
			err := s.decodeBody(httptest.NewRecorder(), r, v)
			if err == nil {
				continue
			}
			var he *httpError
			if !errors.As(err, &he) || (he.code != http.StatusBadRequest && he.code != http.StatusRequestEntityTooLarge) {
				t.Fatalf("decodeBody(%q) into %T: %v, want a 400 or 413", body, v, err)
			}
			if he.code == http.StatusRequestEntityTooLarge && int64(len(body)) <= s.cfg.MaxBodyBytes {
				t.Fatalf("decodeBody(%q): 413 for a %d-byte body under the %d cap", body, len(body), s.cfg.MaxBodyBytes)
			}
		}
	})
}
