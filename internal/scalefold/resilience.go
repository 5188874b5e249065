package scalefold

import (
	"fmt"
	"strconv"

	"repro/internal/perturb"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// ResilienceSpec declares the goodput-vs-failure-rate sweep behind the
// `scalefold resilience` subcommand: the optimized Figure 7 configuration
// at each rank count, perturbed with every failure probability on the
// axis, all sharing one restart cost. It answers the scaling question the
// paper's healthy-cluster measurements cannot: how fast does goodput decay
// as the fleet grows and per-rank failures accumulate into whole-job
// restarts?
//
// The spec is identity only: Scenarios lowers it to an explicit scenario
// list, which runs as SweepSpec{Scenarios: ...} under the caller's
// execution knobs (mode, workers, store, cache, metrics), and
// ResilienceTable formats the resulting rows.
type ResilienceSpec struct {
	// Platform names the hardware profile ("H100", "a100-selene", ...).
	Platform string
	// Ranks are the cluster sizes to compare; DAP is the (single) DAP
	// width every cell runs at.
	Ranks []int
	DAP   int
	// FailProbs is the failure-rate axis: per-rank per-step fatal-failure
	// probabilities. 0 is the healthy baseline row.
	FailProbs []float64
	// RestartCost is the checkpoint-restart cost in seconds every failure
	// pays (perturb.Spec.RestartCost).
	RestartCost float64
	// Base, when non-nil, supplies the straggler/stall components layered
	// under the failure axis (its FailProb/RestartCost are overridden per
	// cell).
	Base *perturb.Spec
	// Steps overrides the per-simulation step count (0 = default). More
	// steps sharpen the failure-rate resolution: a cell only restarts if
	// some rank fails within the simulated window.
	Steps int
}

// DefaultResilienceSpec is the out-of-the-box resilience sweep: the paper's
// two flagship fleet sizes at DAP-8 across five failure rates spanning
// "healthy" to "a rank dies most steps", with a one-minute restart.
func DefaultResilienceSpec() ResilienceSpec {
	return ResilienceSpec{
		Platform:    "H100",
		Ranks:       []int{256, 1024},
		DAP:         8,
		FailProbs:   []float64{0, 1e-5, 1e-4, 1e-3, 1e-2},
		RestartCost: 60,
	}
}

// Scenarios lowers the spec to its explicit scenario list, in row order
// (ranks-major, failure rate minor). Every scenario is the optimized
// Figure 7 configuration plus the cell's perturbation; the FailProb = 0
// cells normalize back to healthy v3 scenarios unless Base adds noise.
func (s ResilienceSpec) Scenarios() ([]scenario.Scenario, error) {
	if len(s.Ranks) == 0 || len(s.FailProbs) == 0 {
		return nil, fmt.Errorf("resilience: ranks and fail-rate axes must be non-empty")
	}
	var out []scenario.Scenario
	for _, ranks := range s.Ranks {
		for _, fp := range s.FailProbs {
			p := perturb.Spec{}
			if s.Base != nil {
				p = *s.Base
			}
			p.FailProb = fp
			p.RestartCost = s.RestartCost
			cfg := Figure7Config(s.Platform, ranks, s.DAP)
			sc := cfg.Scenario
			sc.Steps = s.Steps
			if !p.IsZero() {
				sc.Perturb = &p
			}
			if err := sc.Validate(); err != nil {
				return nil, fmt.Errorf("resilience: ranks=%d fail_prob=%g: %w", ranks, fp, err)
			}
			out = append(out, sc)
		}
	}
	return out, nil
}

// ResilienceTable formats the rows of a sweep over spec.Scenarios() as the
// canonical goodput-vs-failure-rate table: fixed-precision seconds and
// shares, so output is byte-identical across worker counts and store states.
// Ranks, failure probability and restart cost come from each row's scenario
// (an unperturbed cell has both at 0); platform and DAP come from spec as
// spelled.
func ResilienceTable(spec ResilienceSpec, rows []SweepRow) sweep.Table {
	tab := sweep.Table{Header: []string{
		"arch", "ranks", "dap", "fail_prob", "restart_cost_s",
		"goodput", "restarts", "stall_share",
		"p50_step_s", "p99_step_s", "mean_step_s",
	}}
	sec := func(d interface{ Seconds() float64 }) string {
		return strconv.FormatFloat(d.Seconds(), 'f', 6, 64)
	}
	frac := func(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }
	for _, r := range rows {
		var failProb, restart float64
		if p := r.Config.Perturb; p != nil {
			failProb, restart = p.FailProb, p.RestartCost
		}
		tab.Append(
			spec.Platform, strconv.Itoa(r.Config.Ranks), strconv.Itoa(spec.DAP),
			strconv.FormatFloat(failProb, 'g', -1, 64),
			strconv.FormatFloat(restart, 'g', -1, 64),
			frac(r.Res.Goodput), strconv.Itoa(r.Res.Restarts), frac(r.Res.StallShare),
			sec(r.Res.MedianStep), sec(r.Res.P99Step), sec(r.Res.MeanStep),
		)
	}
	return tab
}
