// Package obs is the observability core of the serving stack: a
// dependency-free metrics layer (atomic counters, gauges and fixed-bucket
// latency histograms, grouped in a named Registry with Prometheus text
// exposition) plus a span recorder that captures lifecycle timelines as
// Chrome trace-event JSON. TraceEvent is the one trace event type, so every
// recorded timeline opens in the same Perfetto UI.
//
// Every type is nil-tolerant: methods on nil receivers are allocation-free
// no-ops, so instrumented code paths need no conditionals — an uninstrumented
// run (nil Registry, nil Tracer) pays only a nil check. The sweep engine, the
// fabric coordinator, the result store and the HTTP service all report here;
// future layers (analytic fast path, adaptive search) register their
// hit/escalation rates in the same Registry.
package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; a nil Counter ignores writes.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (no-op on nil, negative n ignored).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one (no-op on nil).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. The zero value is ready to
// use; a nil Gauge ignores writes.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value (no-op on nil).
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta, which may be negative (no-op on nil).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current gauge value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefBuckets is the default latency histogram layout, in seconds: 500µs to
// one minute, roughly ×2.5 per step — wide enough for in-memory lookups and
// multi-second simulations to land in distinct buckets.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram is a fixed-bucket distribution of float64 observations
// (typically seconds). Buckets are cumulative-upper-bound style, like
// Prometheus: counts[i] counts observations <= bounds[i], with one overflow
// bucket past the last bound. Create with NewHistogram or via
// Registry.Histogram; a nil Histogram ignores observations.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; the last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram returns a histogram over the given ascending upper bounds
// (nil bounds select DefBuckets).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value (no-op on nil; NaN ignored).
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveSince records the elapsed seconds since t0 (no-op on nil).
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t0).Seconds())
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// within the bucket holding the target rank — the p50/p99 summaries the
// run-summary lines print. Observations past the last bound report the last
// bound (the estimate saturates). Returns 0 on nil or when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	cum := 0.0
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if n == 0 {
			continue
		}
		if cum+n < target {
			cum += n
			continue
		}
		if i >= len(h.bounds) {
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		return lo + (h.bounds[i]-lo)*(target-cum)/n
	}
	return h.bounds[len(h.bounds)-1]
}
