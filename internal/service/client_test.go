package service

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fabric"
)

// TestCallsSurfaceBodyReadErrors pins the shared call path's error path on
// every kind of call: when a non-2xx response's body dies mid-read
// (Content-Length longer than what the server wrote, a truncated proxy, a
// dropped connection), the error must name both the status and the read
// failure — not lose the status, and not pass for an empty-body
// "HTTP 500: " error that hides what actually went wrong.
func TestCallsSurfaceBodyReadErrors(t *testing.T) {
	const partial = `{"error": "the real`
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Promise more bytes than we send, then hijack and close so the
		// client's read fails with an unexpected EOF instead of seeing a
		// clean (but silently truncated) body.
		w.Header().Set("Content-Length", strconv.Itoa(len(partial)+512))
		w.WriteHeader(http.StatusInternalServerError)
		io.WriteString(w, partial)
		conn, _, err := http.NewResponseController(w).Hijack()
		if err != nil {
			t.Errorf("hijack: %v", err)
			return
		}
		conn.Close()
	}))
	defer ts.Close()

	c := &Client{Base: ts.URL}
	for name, call := range map[string]func() error{
		"Trace":  func() error { return c.Trace("job-000001", io.Discard) },
		"Submit": func() error { _, err := c.Submit(tinyJob()); return err },
		"Job":    func() error { _, err := c.Job("job-000001"); return err },
		"Stream": func() error { _, err := c.Stream("job-000001", nil); return err },
		"fabric claim": func() error {
			var out fabric.ClaimResponse
			_, err := fabric.Call(context.Background(), nil, http.MethodPost,
				ts.URL+"/v1/workers/claim", fabric.ClaimRequest{WorkerID: "w-000001"}, &out)
			return err
		},
	} {
		err := call()
		if err == nil {
			t.Fatalf("%s must fail on a truncated error body", name)
		}
		if !strings.Contains(err.Error(), "body unreadable") {
			t.Fatalf("%s: read failure swallowed: %v", name, err)
		}
		if !strings.Contains(err.Error(), "HTTP 500") {
			t.Fatalf("%s: status lost from the error: %v", name, err)
		}
	}
}

// TestTraceReportsErrorEnvelope covers the healthy non-200 branch around the
// fix: a complete error body still decodes into the server's envelope.
func TestTraceReportsErrorEnvelope(t *testing.T) {
	_, c, stop := newTestServer(t, Config{Workers: 1})
	defer stop()
	err := c.Trace("job-999999", io.Discard)
	if err == nil || !strings.Contains(err.Error(), "unknown job") ||
		!strings.Contains(err.Error(), "HTTP 404") {
		t.Fatalf("want the 404 envelope surfaced, got %v", err)
	}
}
