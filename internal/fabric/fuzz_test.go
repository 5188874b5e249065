package fabric

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// FuzzFabricRoutes sends arbitrary bodies to every fleet POST route of a
// mounted coordinator with no tasks, open and closed. No body may panic a
// handler, and every answer must be one the protocol defines: 200, a 400 for
// a bad body, 410 for an unknown worker, 413 for an oversized body, or 503
// from the closed coordinator.
func FuzzFabricRoutes(f *testing.F) {
	for _, seed := range []string{
		`{"name":"alpha"}`,
		`{"worker_id":"w-000001","max":2}`,
		`{"worker_id":"w-000001","key":"v3:x","result":{"goodput":1},"source":"store-hit"}`,
		`{"worker_id":"w-000001"} {"worker_id":"w-000002"}`,
		`{"bogus":1}`, `[]`, `null`, ``, "{\"name\":\"a\"}\n",
	} {
		f.Add(seed)
	}
	now := func() time.Time { return time.Unix(0, 0) }
	f.Fuzz(func(t *testing.T, body string) {
		// A fresh coordinator per input: registrations must not pile up
		// across a long fuzz run.
		for _, closed := range []bool{false, true} {
			c := NewCoordinator(Config{Now: now}, nil)
			if closed {
				c.Close()
			}
			mux := http.NewServeMux()
			c.Mount(mux)
			for _, route := range []string{"register", "claim", "heartbeat", "complete"} {
				rec := httptest.NewRecorder()
				mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/workers/"+route, strings.NewReader(body)))
				switch rec.Code {
				case http.StatusOK, http.StatusBadRequest, http.StatusGone,
					http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable:
				default:
					t.Fatalf("POST /v1/workers/%s with %q = HTTP %d", route, body, rec.Code)
				}
			}
		}
	})
}
