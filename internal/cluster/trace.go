package cluster

import (
	"encoding/json"
	"io"
	"time"

	"repro/internal/obs"
)

// Timeline is a renderable reconstruction of one simulated step on one
// representative rank, built from a Result's breakdown. It is a summary
// view (per-phase spans), not a kernel-by-kernel record — the census has
// ~150k kernels per step. Its events are Chrome trace-event "ph":"X" spans
// (PID = rank; TID 0 = GPU stream, 1 = CPU launch thread), so a simulated
// step opens in chrome://tracing or Perfetto the way the authors inspected
// their Nsight timelines, next to a job's fabric-level trace.
type Timeline struct {
	Events []obs.TraceEvent
}

// BuildTimeline lays out the mean step of a simulation result as spans:
// data wait, CPU launch exposure, GPU compute (split/serial), collective
// transfer and straggler wait, for the given rank id.
func BuildTimeline(r Result, rank int) Timeline {
	var tl Timeline
	cursor := 0.0
	add := func(name, cat string, tid int, d time.Duration) {
		if d <= 0 {
			return
		}
		us := float64(d) / float64(time.Microsecond)
		tl.Events = append(tl.Events, obs.TraceEvent{
			Name: name, Cat: cat, Ph: "X",
			TS: cursor, Dur: us, PID: rank, TID: tid,
		})
		cursor += us
	}
	b := r.Break
	add("data pipeline wait", "data", 0, b.DataWait)
	add("cpu launch exposure", "cpu", 1, b.CPUExposed)
	add("gpu compute (DAP-split)", "gpu", 0, b.GPUCompute-b.SerialPart)
	add("gpu compute (serial modules)", "gpu", 0, b.SerialPart)
	add("collective transfer", "comm", 0, b.CommXfer)
	add("straggler wait", "comm", 0, b.CommWait)
	add("gradient clip (exposed)", "opt", 0, b.ClipExposed)
	return tl
}

// WriteChromeTrace serializes the timeline as a Chrome trace JSON array.
// BuildTimeline never emits an empty category or a zero duration, so no
// omitempty field of obs.TraceEvent drops out of a span.
func (t Timeline) WriteChromeTrace(w io.Writer) error {
	return json.NewEncoder(w).Encode(t.Events)
}

// Total returns the summed span duration (≈ the mean step time).
func (t Timeline) Total() time.Duration {
	var us float64
	for _, e := range t.Events {
		us += e.Dur
	}
	return time.Duration(us * float64(time.Microsecond))
}
