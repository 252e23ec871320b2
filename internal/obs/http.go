package obs

import (
	"net/http"
	"strings"
)

// StatusWriter captures the status code and body bytes of a response for
// request metrics while preserving the streaming capabilities handlers rely
// on: Flush for NDJSON chunking and relayed streams, and Unwrap for
// http.ResponseController write deadlines.
type StatusWriter struct {
	http.ResponseWriter
	// Status is the first status written; 0 until the handler writes.
	Status int
	// Bytes counts the body bytes written.
	Bytes int64
}

func (sw *StatusWriter) WriteHeader(code int) {
	if sw.Status == 0 {
		sw.Status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *StatusWriter) Write(p []byte) (int, error) {
	if sw.Status == 0 {
		sw.Status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.Bytes += int64(n)
	return n, err
}

func (sw *StatusWriter) Flush() {
	if fl, ok := sw.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

func (sw *StatusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// Code returns the response status, 200 for a handler that wrote nothing.
func (sw *StatusWriter) Code() int {
	if sw.Status == 0 {
		return http.StatusOK
	}
	return sw.Status
}

// Route resolves the mux pattern a request will match — without serving it
// — and strips the method prefix, so metric labels stay low-cardinality
// ("/session/{id}/advance", not one series per session ID). Unroutable
// requests share one label.
func Route(mux *http.ServeMux, r *http.Request) string {
	_, pattern := mux.Handler(r)
	if pattern == "" {
		return "unmatched"
	}
	if i := strings.IndexByte(pattern, ' '); i >= 0 {
		return pattern[i+1:]
	}
	return pattern
}
