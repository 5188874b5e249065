package fabric

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/scalefold"
	"repro/internal/store"
)

// TestWorkerExecuteCellReportsSource pins what a worker tells the
// coordinator about each cell: "simulated" when it ran the simulator and
// wrote through, "store-hit" when the shared store already held the cell —
// with the worker's metrics moving to match.
func TestWorkerExecuteCellReportsSource(t *testing.T) {
	reports := make(chan CompleteRequest, 2)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Error(err)
		}
		reports <- req
		writeFabricJSON(w, http.StatusOK, CompleteResponse{Accepted: true})
	}))
	defer ts.Close()

	cfg := scalefold.Figure7Config("H100", 32, 1)
	cfg.Steps = 2
	cell := Cell{Key: cfg.Fingerprint(), Name: cfg.Name, Scenario: cfg.Scenario}
	var m scalefold.SweepMetrics
	w := &Worker{Base: ts.URL, Store: store.NewMem[cluster.Result](), Metrics: &m}
	for _, want := range []string{"simulated", "store-hit"} {
		w.executeCell(context.Background(), cell)
		req := <-reports
		if req.Err != "" || req.Source != want || req.Result.Goodput <= 0 {
			t.Fatalf("complete = source %q, err %q, goodput %g; want %s", req.Source, req.Err, req.Result.Goodput, want)
		}
	}
	if m.Simulated.Load() != 1 || m.StoreHits.Load() != 1 {
		t.Fatalf("worker metrics simulated=%d store_hits=%d; want 1 and 1", m.Simulated.Load(), m.StoreHits.Load())
	}
	if w.Completed() != 2 {
		t.Fatalf("worker completed %d cells, want 2", w.Completed())
	}
}

// TestWorkerRunCancelAbortsRPC pins that the worker's RPCs run under Run's
// ctx: against a coordinator that admits the worker but never answers a
// claim, cancelling Run must abort the hung call, so Run returns within one
// Poll (plus slack) instead of waiting on the coordinator.
func TestWorkerRunCancelAbortsRPC(t *testing.T) {
	claimed := make(chan struct{}, 1)
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/workers/register":
			writeFabricJSON(w, http.StatusOK, RegisterResponse{WorkerID: "w-000001", HeartbeatMillis: 60_000, BatchSize: 1})
		case "/v1/workers/claim":
			select {
			case claimed <- struct{}{}:
			default:
			}
			<-release
		}
	}))
	defer ts.Close()
	defer close(release) // runs before ts.Close, which waits on the handler

	const poll = 50 * time.Millisecond
	w := &Worker{Base: ts.URL, Poll: poll}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	select {
	case <-claimed:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never claimed")
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run = %v, want nil on cancellation", err)
		}
	case <-time.After(poll + time.Second):
		t.Fatal("Run still blocked in a hung claim after cancel")
	}
}
