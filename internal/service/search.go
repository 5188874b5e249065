package service

import (
	"encoding/json"
	"time"

	"repro/internal/cluster"
	"repro/internal/scalefold"
	"repro/internal/search"
	"repro/internal/sweep"
)

// SearchJobSpec is the wire form of an adaptive-search job, JSON-encoded for
// POST /v1/search. Empty fields take the scalefold.DefaultSearchSpec values,
// so `{}` submits the default search: the H100 ladder to 1024 ranks, the
// resilience failure-rate span, auto-mode probes. An unknown objective (or
// mode, platform, infeasible ladder, ...) is refused with 400 at submission.
type SearchJobSpec struct {
	// Objective: "maximize-goodput" (default) or "minimize-cost-steptime".
	Objective string `json:"objective,omitempty"`
	// Arch names the platform profile, as in JobSpec ("H100", ...).
	Arch  string `json:"arch,omitempty"`
	Ranks []int  `json:"ranks,omitempty"`
	DAPs  []int  `json:"dap,omitempty"`
	// FailLo/FailHi bound the failure-rate axis bisected for the goodput
	// cliff; RestartCost is the per-failure checkpoint-restart cost.
	FailLo      float64 `json:"fail_lo,omitempty"`
	FailHi      float64 `json:"fail_hi,omitempty"`
	RestartCost float64 `json:"restart_cost_s,omitempty"`
	// CliffGoodput is the goodput threshold defining the cliff; Tolerance
	// the bisection stop width in decades.
	CliffGoodput float64 `json:"cliff_goodput,omitempty"`
	Tolerance    float64 `json:"tolerance,omitempty"`
	// Budget bounds unique probes (the job's "cells").
	Budget int `json:"budget,omitempty"`
	Steps  int `json:"steps,omitempty"`
	// Mode resolves probes as in JobSpec.Mode, but defaults to "auto" here:
	// analytic exploration, exact escalation at decision boundaries.
	Mode string `json:"mode,omitempty"`
	// SimWorkers shards inside each probe's simulation. Probes themselves
	// run sequentially (each depends on the previous answers), so unlike
	// sweep jobs there is no workers axis; the server gives each probe the
	// whole pool unless this narrows it.
	SimWorkers int `json:"sim_workers,omitempty"`
}

// SearchSpec lowers the wire spec to an executable one. The server fills
// cache, store, metrics and scheduling hooks; a local `scalefold optimize`
// adds its store and progress printer.
func (js SearchJobSpec) SearchSpec() scalefold.SearchSpec {
	return scalefold.SearchSpec{
		Objective:    js.Objective,
		Platform:     js.Arch,
		Ranks:        js.Ranks,
		DAPs:         js.DAPs,
		FailLo:       js.FailLo,
		FailHi:       js.FailHi,
		RestartCost:  js.RestartCost,
		CliffGoodput: js.CliffGoodput,
		Tolerance:    js.Tolerance,
		Budget:       js.Budget,
		Steps:        js.Steps,
		Mode:         js.Mode,
		SimWorkers:   js.SimWorkers,
	}
}

// ProbeEvent is one NDJSON line of a search job's stream: a settled probe.
// Source reports how the probe resolved ("analytic", "exact", "memo-hit") —
// execution detail, deliberately absent from the Frontier itself so repeat
// runs stay byte-identical.
type ProbeEvent struct {
	Type      string  `json:"type"` // "probe"
	Seq       int     `json:"seq"`
	Phase     string  `json:"phase"`
	Ranks     int     `json:"ranks"`
	DAP       int     `json:"dap"`
	FailProb  float64 `json:"fail_prob"`
	Goodput   float64 `json:"goodput"`
	MeanStepS float64 `json:"mean_step_s"`
	Score     float64 `json:"score"`
	Source    string  `json:"source"`
}

// FrontierEvent is the penultimate NDJSON line of a successful search job's
// stream: the full search report, emitted once before the DoneEvent.
type FrontierEvent struct {
	Type     string             `json:"type"` // "frontier"
	Frontier scalefold.Frontier `json:"frontier"`
}

// SubmitSearch validates and enqueues an adaptive-search job on the same
// queue, scheduler pool and store as sweep jobs. Budget plays the role of
// Cells in the job's progress accounting.
func (s *Server) SubmitSearch(spec SearchJobSpec) (JobStatus, error) {
	sp := spec.SearchSpec().WithDefaults()
	if err := sp.Validate(); err != nil {
		return JobStatus{}, &BadSpecError{Err: err}
	}
	j := &job{kind: KindSearch, search: &spec, cells: sp.Budget}
	st, err := s.enqueue(j)
	if err != nil {
		return JobStatus{}, err
	}
	s.log.Info("search submitted", "job", j.id, "objective", sp.Objective, "budget", sp.Budget)
	return st, nil
}

// runSearchJob executes one started search job. Probes resolve through the
// job-local memo, the server's persistent store, then analytic estimation or
// exact simulation (gated on the shared slot pool) — identical layering to
// sweep cells, under identical fingerprints, so searches and sweeps share
// every record.
func (s *Server) runSearchJob(j *job) {
	ss := j.search.SearchSpec()
	ss.Cache = sweep.NewCache[cluster.Result]()
	ss.Store = s.st
	ss.OnStoreErr = j.noteStoreErr
	ss.Metrics = &j.metrics
	ss.OnEstimate = s.observeEstimate
	ss.Stop = j.cancelled.Load
	// Probes run one at a time, so intra-probe shards are the only
	// parallelism this job has: give each probe the whole pool unless the
	// spec narrows it.
	if ss.SimWorkers <= 0 || ss.SimWorkers > s.cfg.Workers {
		ss.SimWorkers = s.cfg.Workers
	}
	ss.Gate = s.gate(j, true)
	ss.OnProbe = func(p search.Probe, src string, d time.Duration) {
		if c := s.met.searchProbes[src]; c != nil {
			c.Inc()
		}
		s.met.probeHist.Observe(d.Seconds())
		j.streamProbe(p, src)
	}
	f, err := ss.Run()
	s.finish(j, err, func() {
		j.noteFrontier(f)
		s.met.frontierSize.Set(int64(len(f.Pareto)))
	})
}

// streamProbe appends a settled probe to the job's event log.
func (j *job) streamProbe(p search.Probe, src string) {
	if j.cancelled.Load() {
		return
	}
	ev := ProbeEvent{
		Type: "probe", Seq: p.Seq, Phase: p.Phase,
		Ranks: p.Ranks, DAP: p.DAP, FailProb: p.FailProb,
		Goodput: p.Goodput, MeanStepS: p.MeanStepS,
		Score: p.Score, Source: src,
	}
	line, err := json.Marshal(ev)
	if err != nil {
		return // unreachable: ProbeEvent is marshal-safe
	}
	j.mu.Lock()
	j.rows++
	j.probes++
	j.events = append(j.events, append(line, '\n'))
	j.wakeLocked()
	j.mu.Unlock()
}

// noteFrontier records the finished search's report and appends the
// FrontierEvent streaming clients consume before the DoneEvent.
func (j *job) noteFrontier(f scalefold.Frontier) {
	line, err := json.Marshal(FrontierEvent{Type: "frontier", Frontier: f})
	if err != nil {
		return
	}
	j.mu.Lock()
	j.frontierSize = len(f.Pareto)
	j.events = append(j.events, append(line, '\n'))
	j.wakeLocked()
	j.mu.Unlock()
}
