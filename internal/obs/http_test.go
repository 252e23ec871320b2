package obs

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestStatusWriterAndRoute pins the request-metric plumbing serve and router
// share: the first status wins, a silent handler reads as 200, body bytes are
// counted, and route labels are method-stripped mux patterns.
func TestStatusWriterAndRoute(t *testing.T) {
	rec := httptest.NewRecorder()
	sw := &StatusWriter{ResponseWriter: rec}
	if sw.Code() != http.StatusOK {
		t.Fatalf("silent handler: Code() = %d, want 200", sw.Code())
	}
	sw.WriteHeader(http.StatusTeapot)
	sw.WriteHeader(http.StatusInternalServerError)
	if _, err := sw.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	sw.Flush()
	if sw.Code() != http.StatusTeapot || sw.Bytes != 3 || rec.Code != http.StatusTeapot || !rec.Flushed {
		t.Fatalf("Code() = %d, Bytes = %d, recorded %d flushed %v", sw.Code(), sw.Bytes, rec.Code, rec.Flushed)
	}
	if http.NewResponseController(sw).Flush() != nil {
		t.Fatal("ResponseController cannot reach the wrapped writer")
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /session/{id}/advance", func(http.ResponseWriter, *http.Request) {})
	for path, want := range map[string]string{
		"/session/abc/advance": "/session/{id}/advance",
		"/nope":                "unmatched",
	} {
		if got := Route(mux, httptest.NewRequest(http.MethodPost, path, nil)); got != want {
			t.Errorf("Route(%s) = %q, want %q", path, got, want)
		}
	}
}
