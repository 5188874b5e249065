package fabric

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

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
		w.executeCell(cell)
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
