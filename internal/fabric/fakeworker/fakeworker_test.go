package fakeworker

import (
	"testing"
	"time"

	"repro/internal/service"
)

// TestFleetSmoke exercises the harness itself: a default fleet runs a small
// job end to end, its workers report their completions, and Close (also
// registered as a cleanup) is idempotent.
func TestFleetSmoke(t *testing.T) {
	fl := Start(t, Options{Workers: 2})
	st, err := fl.Client.Submit(service.JobSpec{
		Profile:   "scalefold",
		Arches:    []string{"H100"},
		Ranks:     []int{32},
		DAPs:      []int{1, 2},
		Ablations: []string{"none"},
		Seeds:     1,
		Steps:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	done, err := fl.Client.Stream(st.ID, func(service.RowEvent) error { rows++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if done.State != service.StateDone || rows != 2 {
		t.Fatalf("done = %+v after %d rows, want done/2", done, rows)
	}
	// The job settles when the coordinator accepts a complete; the worker
	// increments its own counter only after decoding the response, so give
	// the loops a moment to observe their acceptances.
	deadline := time.Now().Add(5 * time.Second)
	for fl.Worker(0).Completed()+fl.Worker(1).Completed() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("workers completed %d+%d cells, want 2 total",
				fl.Worker(0).Completed(), fl.Worker(1).Completed())
		}
		time.Sleep(time.Millisecond)
	}
	if fl.Shared.Len() != 2 {
		t.Fatalf("shared store holds %d keys, want 2", fl.Shared.Len())
	}
	if n := fl.Metrics.Simulated.Load(); n != 2 {
		t.Fatalf("fleet metrics count %d simulations, want 2", n)
	}
	fl.Kill(0) // killing a worker twice (Close will re-kill) must be safe
	fl.Close()
	fl.Close() // idempotent
}
