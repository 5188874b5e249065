package service

import (
	"io"
	"net/http"
	"sync"
	"testing"
)

// TestStreamFollowersRaceCompletionCancelAndPrune hammers the streaming path
// from every direction at once: multiple NDJSON followers attach to each job
// while jobs complete, get cancelled (queued and running alike), and are
// evicted by the finished-job retention pass that each new submission runs.
// The assertions are deliberately thin — every follower must terminate — and
// the real audit is the race detector over the follow/flush/finalize/prune
// interleavings (CI runs this under -race -short).
func TestStreamFollowersRaceCompletionCancelAndPrune(t *testing.T) {
	_, c, stop := newTestServer(t, Config{Workers: 2, MaxActiveJobs: 1, MaxFinishedJobs: 1})
	defer stop()
	var wg sync.WaitGroup
	for round := 0; round < 8; round++ {
		// Alternate sweep and search submissions so both engines finalize,
		// cancel and stream under the same contention.
		var st JobStatus
		var err error
		if round%2 == 1 {
			spec := tinySearch()
			spec.Budget = 16
			spec.Steps = round + 1 // distinct fingerprints: every job really runs
			st, err = c.SubmitSearch(spec)
		} else {
			spec := tinyJob()
			spec.DAPs = []int{1}
			spec.Ablations = []string{"none"}
			spec.Steps = round + 1
			st, err = c.Submit(spec)
		}
		if err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 3; f++ {
			wg.Add(1)
			go func(id string, search bool) {
				defer wg.Done()
				// A follower of an evicted job gets a 404; of a cancelled
				// job, a cancelled DoneEvent. Both are legitimate ends —
				// only hangs and races are failures here.
				if search {
					c.SearchStream(id, func(ProbeEvent) error { return nil })
				} else {
					c.Stream(id, func(RowEvent) error { return nil })
				}
			}(st.ID, round%2 == 1)
		}
		if round%3 == 2 {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				c.Cancel(id)
			}(st.ID)
		}
		// Observability endpoints join the stampede: the metrics scrape
		// walks every registry series, healthz takes each job's mutex, and
		// the trace download snapshots a tracer that cells are appending to
		// — all while jobs finalize, cancel, and get pruned under them.
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for _, path := range []string{"/v1/metrics", "/v1/healthz"} {
				if resp, err := http.Get(c.url(path)); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
			c.Trace(id, io.Discard) // 404 after eviction is a legitimate end
		}(st.ID)
	}
	wg.Wait()
	for _, j := range c.mustJobs(t) {
		if j.State == StateRunning || j.State == StateQueued {
			// Cancels above may legitimately leave nothing running, but
			// nothing may be stuck either once all streams ended: every
			// surviving job must have reached a terminal state by now —
			// streams only end at the DoneEvent (or eviction).
			t.Fatalf("job %s still %s after every stream ended", j.ID, j.State)
		}
	}
}

// mustJobs is a test-side shim over Client.Jobs.
func (c *Client) mustJobs(t *testing.T) []JobStatus {
	t.Helper()
	jobs, err := c.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}
