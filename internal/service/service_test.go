package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/fabric"
)

// tinyJob is a 4-cell sweep (DAP {1,2} × ablation {none, zero-launch}) at
// tiny rank counts: real simulator, fast enough to run end to end over HTTP.
func tinyJob() JobSpec {
	return JobSpec{
		Profile:   "scalefold",
		Arches:    []string{"H100"},
		Ranks:     []int{32},
		DAPs:      []int{1, 2},
		Ablations: []string{"none", "zero-launch"},
		Seeds:     1,
		Steps:     2,
		Workers:   1,
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *Client, func()) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	stop := func() {
		ts.Close()
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	}
	return srv, &Client{Base: ts.URL}, stop
}

// collectRows streams a job to completion and returns its row events keyed
// by grid index, plus the terminal event.
func collectRows(t *testing.T, c *Client, id string) (map[int]RowEvent, DoneEvent) {
	t.Helper()
	rows := map[int]RowEvent{}
	done, err := c.Stream(id, func(ev RowEvent) error {
		if _, dup := rows[ev.Index]; dup {
			t.Fatalf("row %d streamed twice", ev.Index)
		}
		rows[ev.Index] = ev
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows, done
}

// TestServeSubmitStreamRestartPersistence is the acceptance walk: start the
// server on a loopback port, submit a sweep over HTTP, stream NDJSON cells
// to completion, restart the server against the same store directory,
// resubmit the same spec, and observe every cell served from the persistent
// store — zero re-simulation — with byte-identical rows.
func TestServeSubmitStreamRestartPersistence(t *testing.T) {
	dir := t.TempDir()

	rowBytes := func(rows map[int]RowEvent, n int) []string {
		out := make([]string, n)
		for i := 0; i < n; i++ {
			ev, ok := rows[i]
			if !ok {
				t.Fatalf("row %d never streamed", i)
			}
			b, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = string(b)
		}
		return out
	}

	// First server lifetime: the job simulates and fills the store.
	_, c1, stop1 := newTestServer(t, Config{StoreDir: dir, Workers: 1})
	st, err := c1.Submit(tinyJob())
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("fresh job state = %q", st.State)
	}
	if st.Cells != 4 {
		t.Fatalf("grid size %d, want 4", st.Cells)
	}
	rows1, done1 := collectRows(t, c1, st.ID)
	if done1.State != StateDone || done1.Rows != 4 || done1.Skipped != 0 {
		t.Fatalf("first done event: %+v", done1)
	}
	if done1.Simulated != 4 || done1.StoreHits != 0 {
		t.Fatalf("first run must simulate every cell: %+v", done1)
	}
	final, err := c1.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Done != 4 || final.Simulated != 4 {
		t.Fatalf("first job status: %+v", final)
	}
	ss, err := c1.StoreStatus()
	if err != nil {
		t.Fatal(err)
	}
	if ss.Keys != 4 || ss.Dir != dir {
		t.Fatalf("store status after first run: %+v", ss)
	}
	stop1()

	// Second server lifetime, same store directory: a brand-new process-
	// equivalent (fresh job-local memo caches, reloaded disk store). The
	// same spec must be served entirely from the store.
	srv2, c2, stop2 := newTestServer(t, Config{StoreDir: dir, Workers: 1})
	defer stop2()
	if n := srv2.Store().Len(); n != 4 {
		t.Fatalf("restarted store reloaded %d keys, want 4", n)
	}
	st2, err := c2.Submit(tinyJob())
	if err != nil {
		t.Fatal(err)
	}
	rows2, done2 := collectRows(t, c2, st2.ID)
	if done2.State != StateDone || done2.Rows != 4 {
		t.Fatalf("second done event: %+v", done2)
	}
	if done2.Simulated != 0 {
		t.Fatalf("restarted server re-simulated %d cells, want 0 (all from store)", done2.Simulated)
	}
	if done2.StoreHits != 4 {
		t.Fatalf("restarted server had %d store hits, want 4", done2.StoreHits)
	}

	b1, b2 := rowBytes(rows1, 4), rowBytes(rows2, 4)
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatalf("row %d changed across restart:\n%s\nvs\n%s", i, b1[i], b2[i])
		}
	}
}

func TestStreamedRowsMatchSweepTable(t *testing.T) {
	_, c, stop := newTestServer(t, Config{Workers: 1})
	defer stop()
	spec := tinyJob()
	spec.Ranks = []int{30} // not divisible by 4: the DAP-4 cells skip
	spec.DAPs = []int{1, 4}
	st, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	rows, done := collectRows(t, c, st.ID)
	if done.State != StateDone {
		t.Fatalf("done event: %+v", done)
	}
	if done.Skipped != 2 { // DAP-4 cells infeasible at 30 ranks
		t.Fatalf("skipped %d rows, want 2: %+v", done.Skipped, done)
	}
	for i, ev := range rows {
		if ev.Status == "skipped" {
			if ev.Skip == "" || ev.Data["median_step_s"] != "" {
				t.Fatalf("skipped row %d malformed: %+v", i, ev)
			}
			continue
		}
		if ev.Status != "ok" || ev.Data["median_step_s"] == "" || ev.Data["arch"] != "H100" {
			t.Fatalf("row %d malformed: %+v", i, ev)
		}
	}
}

func TestSubmitRejectsBadSpec(t *testing.T) {
	_, c, stop := newTestServer(t, Config{Workers: 1})
	defer stop()
	bad := tinyJob()
	bad.Profile = "alphafold3"
	if _, err := c.Submit(bad); err == nil || !strings.Contains(err.Error(), "HTTP 400") {
		t.Fatalf("bad profile must yield HTTP 400, got %v", err)
	}
	neg := tinyJob()
	neg.Seeds = -1
	if _, err := c.Submit(neg); err == nil || !strings.Contains(err.Error(), "HTTP 400") {
		t.Fatalf("negative seeds must yield HTTP 400, got %v", err)
	}
}

// TestOversizedBodiesAre413 pins the body bound on every POST decoder — job
// and search submission and the fleet protocol — and that refusing one
// oversized body leaves the server serving.
func TestOversizedBodiesAre413(t *testing.T) {
	_, c, stop := newTestServer(t, Config{Workers: 1, Fabric: &fabric.Config{}})
	defer stop()
	huge := `{"name":"` + strings.Repeat("x", fabric.MaxBodyBytes) + `"}`
	for _, path := range []string{"/v1/jobs", "/v1/search", "/v1/workers/complete"} {
		resp, err := http.Post(c.Base+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		var body apiError
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || body.Error == "" {
			t.Fatalf("POST %s with an oversized body = HTTP %d (%v, %+v); want a JSON 413", path, resp.StatusCode, err, body)
		}
	}
	job := tinyJob()
	job.Mode = "analytic" // resolves on the coordinator: no fleet needed
	st, err := c.Submit(job)
	if err != nil {
		t.Fatalf("valid submit after refused bodies: %v", err)
	}
	if _, done := collectRows(t, c, st.ID); done.State != StateDone {
		t.Fatalf("job after refused bodies ended %q, want done", done.State)
	}
}

// TestTrailingDataIs400 pins that a POST body holds exactly one JSON value:
// anything but whitespace after it gets the JSON 400, while the newline
// json.Encoder ends every body with is still accepted.
func TestTrailingDataIs400(t *testing.T) {
	_, c, stop := newTestServer(t, Config{Workers: 1, Fabric: &fabric.Config{}})
	defer stop()
	job := tinyJob()
	job.Mode = "analytic" // resolves on the coordinator: no fleet needed
	first, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	for path, body := range map[string]string{
		"/v1/jobs":             string(first),
		"/v1/workers/register": `{"name":"a"}`,
	} {
		for _, tail := range []string{` {"bogus":1} garbage`, ` garbage`, `}`, `{}`} {
			resp, err := http.Post(c.Base+path, "application/json", strings.NewReader(body+tail))
			if err != nil {
				t.Fatal(err)
			}
			var ae apiError
			err = json.NewDecoder(resp.Body).Decode(&ae)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || err != nil || ae.Error == "" {
				t.Fatalf("POST %s with trailing %q = HTTP %d (%v, %+v); want a JSON 400", path, tail, resp.StatusCode, err, ae)
			}
		}
		resp, err := http.Post(c.Base+path, "application/json", strings.NewReader(body+"\n"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			t.Fatalf("POST %s with a trailing newline = HTTP %d, want 2xx", path, resp.StatusCode)
		}
	}
}

func TestUnknownJobIs404(t *testing.T) {
	_, c, stop := newTestServer(t, Config{Workers: 1})
	defer stop()
	if _, err := c.Job("job-999999"); err == nil || !strings.Contains(err.Error(), "HTTP 404") {
		t.Fatalf("unknown job must 404, got %v", err)
	}
	if _, err := c.Cancel("job-999999"); err == nil || !strings.Contains(err.Error(), "HTTP 404") {
		t.Fatalf("cancel of unknown job must 404, got %v", err)
	}
	if _, err := c.Stream("job-999999", nil); err == nil || !strings.Contains(err.Error(), "HTTP 404") {
		t.Fatalf("stream of unknown job must 404, got %v", err)
	}
}

// TestCancelQueuedJob pins FIFO scheduling and cancellation determinism:
// with one active-job slot, a second submission sits in the queue, can be
// cancelled there, and never simulates anything.
func TestCancelQueuedJob(t *testing.T) {
	_, c, stop := newTestServer(t, Config{Workers: 1, MaxActiveJobs: 1})
	defer stop()
	first, err := c.Submit(tinyJob())
	if err != nil {
		t.Fatal(err)
	}
	queued, err := c.Submit(tinyJob())
	if err != nil {
		t.Fatal(err)
	}
	cancelled, err := c.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	// A cancelled queued job settles immediately — its status and stream
	// must not wait for a scheduler worker to dequeue it.
	if cancelled.State != StateCancelled {
		t.Fatalf("cancelled queued job reports %q, want %q now", cancelled.State, StateCancelled)
	}
	done, err := c.Stream(queued.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateCancelled || done.Simulated != 0 || done.Rows != 0 {
		t.Fatalf("cancelled-in-queue job must never simulate: %+v", done)
	}
	// The first job is unaffected and completes.
	if d, err := c.Stream(first.ID, nil); err != nil || d.State != StateDone {
		t.Fatalf("first job: %+v, %v", d, err)
	}
	list, err := c.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != first.ID || list[1].ID != queued.ID {
		t.Fatalf("job listing wrong: %+v", list)
	}
}

func TestJobsShareStoreWithinOneServer(t *testing.T) {
	_, c, stop := newTestServer(t, Config{Workers: 1})
	defer stop()
	a, err := c.Submit(tinyJob())
	if err != nil {
		t.Fatal(err)
	}
	if d, err := c.Stream(a.ID, nil); err != nil || d.Simulated != 4 {
		t.Fatalf("first job: %+v, %v", d, err)
	}
	// Same spec again, same server: jobs have fresh memo caches, so the
	// sharing layer is the (here in-memory) store.
	b, err := c.Submit(tinyJob())
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.Stream(b.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Simulated != 0 || d.StoreHits != 4 {
		t.Fatalf("second job must be served by the shared store: %+v", d)
	}
}

func TestFinishedJobRetentionBounded(t *testing.T) {
	_, c, stop := newTestServer(t, Config{Workers: 1, MaxFinishedJobs: 1})
	defer stop()
	spec := tinyJob()
	spec.DAPs = []int{1}
	spec.Ablations = []string{"none"}
	var last JobStatus
	for i := 0; i < 3; i++ {
		st, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Stream(st.ID, nil); err != nil {
			t.Fatal(err)
		}
		last = st
	}
	list, err := c.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	// Eviction happens at submission time, so after the third submit at
	// most MaxFinishedJobs finished jobs from before it survive, plus the
	// third job itself.
	if len(list) > 2 {
		t.Fatalf("retention must prune finished jobs: %d retained", len(list))
	}
	if _, err := c.Job(last.ID); err != nil {
		t.Fatalf("newest job must survive pruning: %v", err)
	}
}

func TestHealthz(t *testing.T) {
	srv, c, stop := newTestServer(t, Config{Workers: 1})
	defer stop()
	var ok struct {
		OK bool `json:"ok"`
	}
	if _, err := c.call(http.MethodGet, "/v1/healthz", nil, &ok); err != nil || !ok.OK {
		t.Fatalf("healthz: %+v, %v", ok, err)
	}
	// Submitting after Close is refused rather than wedging the queue.
	stop()
	if _, err := srv.Submit(tinyJob()); err == nil {
		t.Fatal("submit after close must fail")
	}
}
