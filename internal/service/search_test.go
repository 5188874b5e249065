package service

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// tinySearch is a fast adaptive-search job over small clusters: real probes,
// quick enough to run end to end over HTTP in the race-enabled suite.
func tinySearch() SearchJobSpec {
	return SearchJobSpec{
		Objective: "maximize-goodput",
		Arch:      "H100",
		Ranks:     []int{32, 64},
		DAPs:      []int{1, 2},
		FailLo:    1e-4,
		FailHi:    0.5,
		Steps:     2,
		Mode:      "auto",
		Budget:    32,
	}
}

func TestSearchJobEndToEnd(t *testing.T) {
	_, c, stop := newTestServer(t, Config{Workers: 2})
	defer stop()
	st, err := c.SubmitSearch(tinySearch())
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != KindSearch || st.Search == nil || st.Cells != 32 {
		t.Fatalf("submit status: %+v", st)
	}
	probes := 0
	frontier, done, err := c.SearchStream(st.ID, func(ev ProbeEvent) error {
		if ev.Phase == "" || ev.Ranks == 0 || ev.Source == "" {
			t.Errorf("incomplete probe event: %+v", ev)
		}
		probes++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone {
		t.Fatalf("done event: %+v", done)
	}
	if frontier == nil || frontier.Cliff == nil || len(frontier.Pareto) == 0 {
		t.Fatalf("frontier missing or incomplete: %+v", frontier)
	}
	if probes == 0 || probes != frontier.Used || done.Rows != probes {
		t.Fatalf("probe accounting: streamed=%d used=%d rows=%d", probes, frontier.Used, done.Rows)
	}
	fin, err := c.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.Probes != probes || fin.FrontierSize != len(frontier.Pareto) {
		t.Fatalf("final status: %+v", fin)
	}
	// The search series are live: probe counters by source, the frontier
	// gauge, the latency histogram.
	resp, err := http.Get(c.url("/v1/metrics"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`scalefold_search_probes_total{source="analytic"}`,
		`scalefold_search_probes_total{source="exact"}`,
		`scalefold_search_probes_total{source="memo-hit"}`,
		"scalefold_search_frontier_size ",
		"scalefold_search_probe_seconds",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestBadSearchSpecIs400 pins the typed-error contract of POST /v1/search:
// an unknown objective (or mode, or an unparsable body) is a 400, never a
// 500 or an accepted job.
func TestBadSearchSpecIs400(t *testing.T) {
	_, c, stop := newTestServer(t, Config{Workers: 1})
	defer stop()
	bad := tinySearch()
	bad.Objective = "maximize-flops"
	if _, err := c.SubmitSearch(bad); err == nil || !strings.Contains(err.Error(), "HTTP 400") ||
		!strings.Contains(err.Error(), "objective") {
		t.Fatalf("unknown objective must yield HTTP 400 naming the field, got %v", err)
	}
	bad = tinySearch()
	bad.Mode = "guess"
	if _, err := c.SubmitSearch(bad); err == nil || !strings.Contains(err.Error(), "HTTP 400") {
		t.Fatalf("unknown mode must yield HTTP 400, got %v", err)
	}
	resp, err := http.Post(c.url("/v1/search"), "application/json",
		strings.NewReader(`{"objective": 7}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("unparsable body must yield 400, got %d", resp.StatusCode)
	}
	if jobs := c.mustJobs(t); len(jobs) != 0 {
		t.Fatalf("refused submissions must not enqueue jobs: %+v", jobs)
	}
}

// TestSearchCancelQueuedSettlesImmediately pins the first finalize race for
// search jobs: cancelling a still-queued search settles it now — status and
// stream end without waiting for a scheduler worker — and nothing simulates.
func TestSearchCancelQueuedSettlesImmediately(t *testing.T) {
	_, c, stop := newTestServer(t, Config{Workers: 1, MaxActiveJobs: 1})
	defer stop()
	first, err := c.Submit(tinyJob())
	if err != nil {
		t.Fatal(err)
	}
	queued, err := c.SubmitSearch(tinySearch())
	if err != nil {
		t.Fatal(err)
	}
	cancelled, err := c.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cancelled.State != StateCancelled {
		t.Fatalf("cancelled queued search reports %q, want %q now", cancelled.State, StateCancelled)
	}
	frontier, done, err := c.SearchStream(queued.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateCancelled || done.Simulated != 0 || done.Rows != 0 || frontier != nil {
		t.Fatalf("cancelled-in-queue search must never probe: %+v frontier=%v", done, frontier)
	}
	if d, err := c.Stream(first.ID, nil); err != nil || d.State != StateDone {
		t.Fatalf("first job: %+v, %v", d, err)
	}
}

// TestSearchCancelMidRunWinsOverFailed pins the second finalize race: a
// cancel landing while the search runs makes the driver surface
// search.ErrStopped — an error — but the job must settle cancelled, not
// failed, and must not carry the abort as its error.
func TestSearchCancelMidRunWinsOverFailed(t *testing.T) {
	_, c, stop := newTestServer(t, Config{Workers: 1})
	defer stop()
	// Every probe really simulates a 24-step cell: a wide cancel window —
	// the cancel issued after the first probe lands many probes before the
	// search could finish.
	spec := tinySearch()
	spec.Mode = "exact"
	spec.Ranks = []int{64, 128}
	spec.DAPs = []int{1, 2, 4}
	spec.Steps = 24
	st, err := c.SubmitSearch(spec)
	if err != nil {
		t.Fatal(err)
	}
	cancelledAt := -1
	frontier, done, err := c.SearchStream(st.ID, func(ev ProbeEvent) error {
		if cancelledAt < 0 {
			// The first probe proves the job is mid-run; the search still
			// has its whole ladder ahead, so the cancel lands inside it.
			if _, err := c.Cancel(st.ID); err != nil {
				return err
			}
			cancelledAt = ev.Seq
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cancelledAt < 0 {
		t.Fatal("stream ended before any probe; cannot exercise the mid-run cancel")
	}
	if done.State != StateFailed && done.State != StateCancelled {
		t.Fatalf("unexpected terminal state %q", done.State)
	}
	if done.State == StateFailed {
		t.Fatalf("cancel lost to failure: %+v", done)
	}
	if done.Error != "" {
		t.Fatalf("cancelled search must not surface the abort as an error: %+v", done)
	}
	if frontier != nil {
		t.Fatalf("cancelled search must not publish a frontier: %+v", frontier)
	}
	fin, err := c.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateCancelled || fin.Error != "" {
		t.Fatalf("final status after mid-run cancel: %+v", fin)
	}
}
