package scalefold

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/perturb"
	"repro/internal/sweep"
)

func tinyResilienceSpec() ResilienceSpec {
	return ResilienceSpec{
		Platform:    "H100",
		Ranks:       []int{16, 32},
		DAP:         2,
		FailProbs:   []float64{0, 0.5},
		RestartCost: 30,
		Steps:       2,
	}
}

// TestResilienceScenariosKeyByGeneration pins the sweep's identity
// contract: the healthy (fail_prob 0) cells stay v3 scenarios, the failing
// cells mint v4 keys, and the base perturbation template layers under the
// failure axis without leaking its own fail prob.
func TestResilienceScenariosKeyByGeneration(t *testing.T) {
	spec := tinyResilienceSpec()
	spec.Base = &perturb.Spec{StallRate: 0.5, StallMean: 1, FailProb: 0.9, RestartCost: 1}
	scs, err := spec.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 4 {
		t.Fatalf("expanded %d cells, want 4", len(scs))
	}
	for i, sc := range scs {
		fp := sc.Fingerprint()
		if sc.Perturb == nil {
			t.Fatalf("cell %d lost its base perturbation", i)
		}
		if !strings.HasPrefix(fp, "v4:") {
			t.Fatalf("cell %d with base noise must key v4, got %s", i, fp)
		}
		wantFail := spec.FailProbs[i%len(spec.FailProbs)]
		if sc.Perturb.FailProb != wantFail || sc.Perturb.RestartCost != spec.RestartCost {
			t.Fatalf("cell %d: failure axis did not override the base template: %+v", i, sc.Perturb)
		}
	}

	// Without a base template the fail_prob=0 rows are healthy v3 cells.
	scs, err = tinyResilienceSpec().Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range scs {
		fp := sc.Fingerprint()
		healthy := spec.FailProbs[i%len(spec.FailProbs)] == 0
		if healthy && (!strings.HasPrefix(fp, "v3:") || sc.Perturb != nil) {
			t.Fatalf("healthy cell %d must stay v3/unperturbed, got %s %+v", i, fp, sc.Perturb)
		}
		if !healthy && !strings.HasPrefix(fp, "v4:") {
			t.Fatalf("failing cell %d must key v4, got %s", i, fp)
		}
	}
}

// TestResilienceTableDeterministicAndDegrading pins the subcommand's
// output: byte-identical across worker counts (memoized or cold), healthy
// rows at goodput exactly 1 with zero restarts, and failing rows strictly
// below them.
func TestResilienceTableDeterministicAndDegrading(t *testing.T) {
	render := func(workers int) (string, []SweepRow) {
		spec := tinyResilienceSpec()
		scs, err := spec.Scenarios()
		if err != nil {
			t.Fatal(err)
		}
		sw := SweepSpec{Scenarios: scs, Workers: workers, Cache: sweep.NewCache[cluster.Result]()}
		rows, err := sw.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ResilienceTable(spec, rows).WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String(), rows
	}
	serial, rows := render(1)
	parallel, _ := render(4)
	if serial != parallel {
		t.Fatalf("resilience table not byte-identical across workers:\n%s\nvs\n%s", serial, parallel)
	}
	for _, r := range rows {
		var failProb float64
		if p := r.Config.Perturb; p != nil {
			failProb = p.FailProb
		}
		if failProb == 0 {
			if r.Res.Goodput != 1 || r.Res.Restarts != 0 {
				t.Fatalf("healthy row degraded: %+v", r.Res)
			}
			continue
		}
		if r.Res.Goodput >= 1 || r.Res.Restarts == 0 {
			t.Fatalf("fail_prob=%v row did not degrade: goodput=%v restarts=%d",
				failProb, r.Res.Goodput, r.Res.Restarts)
		}
		if r.Res.MeanStep <= r.Res.MedianStep/2 {
			t.Fatalf("restart cost vanished from the mean: %+v", r.Res)
		}
	}
	if !strings.HasPrefix(serial, "arch,ranks,dap,fail_prob,restart_cost_s,goodput,restarts") {
		t.Fatalf("table header drifted:\n%s", serial)
	}
}
