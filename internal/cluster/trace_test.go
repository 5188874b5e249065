package cluster

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestBuildTimelineCoversStep(t *testing.T) {
	r := Simulate(baselineProg(), 16, 1, quickOpts(41))
	tl := BuildTimeline(r, 0)
	if len(tl.Events) == 0 {
		t.Fatal("timeline must have spans")
	}
	// Total span time matches the breakdown-derived step within jitter.
	ratio := float64(tl.Total()) / float64(r.MeanStep)
	if ratio < 0.8 || ratio > 1.2 {
		t.Fatalf("timeline total %v vs step %v", tl.Total(), r.MeanStep)
	}
	// Spans must be non-overlapping and ordered.
	var prevEnd float64
	for _, e := range tl.Events {
		if e.TS < prevEnd-1e-9 {
			t.Fatalf("span %q overlaps previous", e.Name)
		}
		prevEnd = e.TS + e.Dur
	}
}

func TestTimelineOmitsEmptyPhases(t *testing.T) {
	r := Simulate(baselineProg(), 16, 1, quickOpts(42))
	tl := BuildTimeline(r, 3)
	for _, e := range tl.Events {
		if e.Dur <= 0 {
			t.Fatalf("zero-duration span %q emitted", e.Name)
		}
		if e.PID != 3 {
			t.Fatalf("span pid %d, want 3", e.PID)
		}
	}
}

func TestWriteChromeTraceIsValidJSON(t *testing.T) {
	r := Simulate(baselineProg(), 8, 1, quickOpts(43))
	tl := BuildTimeline(r, 0)
	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if len(events) != len(tl.Events) {
		t.Fatal("event count mismatch")
	}
	for _, e := range events {
		if e["ph"] != "X" {
			t.Fatal("complete events expected")
		}
	}
}

func TestTimelineTotalZeroForEmpty(t *testing.T) {
	var tl Timeline
	if tl.Total() != time.Duration(0) {
		t.Fatal("empty timeline total must be zero")
	}
}

// TestWriteChromeTraceGolden pins WriteChromeTrace byte for byte: the JSON a
// simulated step's timeline exports, clean and perturbed, on two ranks.
func TestWriteChromeTraceGolden(t *testing.T) {
	path := filepath.Join("testdata", "chrome_trace_golden.json")
	var got bytes.Buffer
	for _, perturbed := range []bool{false, true} {
		o := quickOpts(7)
		if perturbed {
			o.Perturb = goldenPerturb
		}
		for _, rank := range []int{0, 3} {
			if err := BuildTimeline(Simulate(baselineProg(), 16, 4, o), rank).WriteChromeTrace(&got); err != nil {
				t.Fatal(err)
			}
		}
	}
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("Chrome trace drifted from %s.\n--- want ---\n%s\n--- got ---\n%s", path, want, got.Bytes())
	}
}
