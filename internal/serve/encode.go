package serve

import (
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"

	"repro/internal/dense"
)

// The numeric response bodies — /eval, /sweep, /transient and the session
// advance stream — are appended by hand from the evaluator's results instead
// of going through encoding/json's reflection. Every appender writes exactly
// the bytes encoding/json writes for the same value (the golden tests pin
// this), so clients and the router see no difference. A NaN or ±Inf is
// rejected with the *json.UnsupportedValueError encoding/json would return.

// maxPooledBuf bounds the response buffers kept for reuse: a rare huge
// response (a long buffered transient) is dropped rather than pinned.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 64<<10); return &b }}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		bufPool.Put(b)
	}
}

// jsonString encodes s as encoding/json does, HTML escaping included. Models
// encode their ID once with it, so the appenders never escape strings.
func jsonString(s string) []byte {
	b, _ := json.Marshal(s) // a string always marshals
	return b
}

// writeStreamError writes the final {"error": msg} line that marks an NDJSON
// stream as truncated. Its write error is moot: the stream ends either way.
func writeStreamError(w io.Writer, msg string) {
	b, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	w.Write(append(b, '\n'))
}

// appendFloat appends f formatted as encoding/json formats a float64 (see
// appendJSONFloat), or rejects NaN and ±Inf with encoding/json's error.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	return appendJSONFloat(b, f), nil
}

// appendArray appends v as a JSON array of elem's encodings; nil is null, as
// in encoding/json.
func appendArray[T any](b []byte, v []T, elem func([]byte, T) ([]byte, error)) ([]byte, error) {
	if v == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = elem(b, x); err != nil {
			return b, err
		}
	}
	return append(b, ']'), nil
}

func appendFloats(b []byte, v []float64) ([]byte, error) { return appendArray(b, v, appendFloat) }

// appendEvalPoint appends one /eval point, {"omega":ω,"h":[[[re,im],…],…]},
// with h's p×m entries row by row.
func appendEvalPoint(b []byte, omega float64, h *dense.Mat[complex128]) ([]byte, error) {
	b = append(b, `{"omega":`...)
	b, err := appendFloat(b, omega)
	if err != nil {
		return b, err
	}
	b = append(b, `,"h":[`...)
	for i := 0; i < h.Rows; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, z := range h.Data[i*h.Cols : (i+1)*h.Cols] {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, '[')
			if b, err = appendFloat(b, real(z)); err != nil {
				return b, err
			}
			b = append(b, ',')
			if b, err = appendFloat(b, imag(z)); err != nil {
				return b, err
			}
			b = append(b, ']')
		}
		b = append(b, ']')
	}
	return append(b, "]}"...), nil
}

// appendEval appends the /eval body {"model":…,"points":[…]}, one point per
// requested frequency.
func appendEval(b []byte, m *Model, omegas []float64, mats []*dense.Mat[complex128]) ([]byte, error) {
	b = append(b, `{"model":`...)
	b = append(b, m.idJSON...)
	b = append(b, `,"points":[`...)
	for k, h := range mats {
		if k > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendEvalPoint(b, omegas[k], h); err != nil {
			return b, err
		}
	}
	return append(b, "]}"...), nil
}

// appendSweepPoint appends {"omega":…,"re":…,"im":…,"mag":…}.
func appendSweepPoint(b []byte, p SweepPoint) ([]byte, error) {
	var err error
	for _, f := range [4]struct {
		key string
		v   float64
	}{{`{"omega":`, p.Omega}, {`,"re":`, p.Re}, {`,"im":`, p.Im}, {`,"mag":`, p.Mag}} {
		b = append(b, f.key...)
		if b, err = appendFloat(b, f.v); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

// appendEntrySweep appends {"row":…,"col":…,"points":[…]}.
func appendEntrySweep(b []byte, e EntrySweep) ([]byte, error) {
	b = append(b, `{"row":`...)
	b = strconv.AppendInt(b, int64(e.Row), 10)
	b = append(b, `,"col":`...)
	b = strconv.AppendInt(b, int64(e.Col), 10)
	b = append(b, `,"points":`...)
	b, err := appendArray(b, e.Points, appendSweepPoint)
	if err != nil {
		return b, err
	}
	return append(b, '}'), nil
}

// appendSweep appends the single-entry /sweep body {"model":…,"points":[…]}.
func appendSweep(b []byte, m *Model, pts []SweepPoint) ([]byte, error) {
	b = append(b, `{"model":`...)
	b = append(b, m.idJSON...)
	b = append(b, `,"points":`...)
	b, err := appendArray(b, pts, appendSweepPoint)
	if err != nil {
		return b, err
	}
	return append(b, '}'), nil
}

// appendSweepEntries appends the batched /sweep body
// {"entries":[…],"model":…}; the keys are in encoding/json's sorted map order.
func appendSweepEntries(b []byte, m *Model, sweeps []EntrySweep) ([]byte, error) {
	b = append(b, `{"entries":`...)
	b, err := appendArray(b, sweeps, appendEntrySweep)
	if err != nil {
		return b, err
	}
	b = append(b, `,"model":`...)
	b = append(b, m.idJSON...)
	return append(b, '}'), nil
}

// appendTransientRow appends one row of a transient or session stream,
// {"t":…,"y":[…]}.
func appendTransientRow(b []byte, t float64, y []float64) ([]byte, error) {
	b = append(b, `{"t":`...)
	b, err := appendFloat(b, t)
	if err != nil {
		return b, err
	}
	b = append(b, `,"y":`...)
	if b, err = appendFloats(b, y); err != nil {
		return b, err
	}
	return append(b, '}'), nil
}

// appendTransient appends the buffered /transient body
// {"model":…,"t":[…],"y":[[…],…]}.
func appendTransient(b []byte, m *Model, ts []float64, ys [][]float64) ([]byte, error) {
	b = append(b, `{"model":`...)
	b = append(b, m.idJSON...)
	b = append(b, `,"t":`...)
	b, err := appendFloats(b, ts)
	if err != nil {
		return b, err
	}
	b = append(b, `,"y":`...)
	if b, err = appendArray(b, ys, appendFloats); err != nil {
		return b, err
	}
	return append(b, '}'), nil
}

// appendLines appends rows lo..hi-1 as NDJSON lines. It stops at the first
// row that fails to encode and returns the buffer cut back to the complete
// lines before it, their count, and the error.
func appendLines(b []byte, lo, hi int, row func(b []byte, i int) ([]byte, error)) ([]byte, int, error) {
	for i := lo; i < hi; i++ {
		mark := len(b)
		var err error
		if b, err = row(b, i); err != nil {
			return b[:mark], i - lo, err
		}
		b = append(b, '\n')
	}
	return b, hi - lo, nil
}
