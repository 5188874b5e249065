package scalefold

import (
	"time"

	"repro/internal/analytic"
	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/store"
)

// resolver is the one path every cell takes from configuration to Result —
// figure runners, sweeps, searches and fabric workers alike. The in-memory
// memo (sweep.Cache) sits in front of it as the singleflight layer; resolve
// itself runs the rest of the chain: persistent store, then the analytic
// estimate, the remote runner or the exact simulator.
type resolver struct {
	// store backs the memo persistently (nil = memory only): cells are
	// looked up before computing and locally computed results are written
	// through after. Remote results are not — the runner's owner persists
	// them.
	store store.Store[cluster.Result]
	// onStoreErr receives write-through errors; a failing store degrades
	// to memory-only operation instead of failing the cell.
	onStoreErr func(error)
	// metrics, when non-nil, counts how each cell was satisfied.
	metrics *SweepMetrics
	// onEstimate observes the latency of every analytic estimate computed.
	onEstimate func(time.Duration)
	// runner, when non-nil, replaces local simulation for exact cells the
	// store cannot satisfy (fabric dispatch). Analytic cells never travel:
	// an estimate costs less than the dispatch round trip.
	runner func(StepConfig) (cluster.Result, error)
}

// resolve returns the cell's Result and how it was satisfied: "store-hit",
// "analytic", "simulated" or "remote". An auto-mode cell is first resolved
// to its concrete mode. The only error is the runner's.
func (rv resolver) resolve(c StepConfig) (cluster.Result, string, error) {
	c.Scenario = resolveMode(c.Scenario, "", rv.metrics)
	var key string
	if rv.store != nil {
		key = c.Fingerprint()
		if r, ok := Stored(rv.store, key); ok {
			rv.metrics.note("store-hit")
			return r, "store-hit", nil
		}
	}
	var r cluster.Result
	var src string
	switch {
	case c.Mode == scenario.ModeAnalytic:
		// The estimator never bumps simCount: that counts exact simulator
		// runs, the quantity the fast path exists to avoid.
		t0 := time.Now()
		var err error
		if r, _, err = analytic.Estimate(c.Scenario); err != nil {
			panic("scalefold: unvalidated scenario reached the estimator: " + err.Error())
		}
		if rv.onEstimate != nil {
			rv.onEstimate(time.Since(t0))
		}
		src = "analytic"
	case rv.runner != nil:
		r, err := rv.runner(c)
		if err != nil {
			return cluster.Result{}, "", err
		}
		rv.metrics.note("remote")
		return r, "remote", nil
	default:
		simCount.Add(1)
		r = cluster.Simulate(scenario.CensusFor(c.Census), c.Ranks, c.DAP, c.clusterOptions())
		src = "simulated"
	}
	rv.metrics.note(src)
	if rv.store != nil {
		if err := rv.store.Put(key, r); err != nil && rv.onStoreErr != nil {
			rv.onStoreErr(err)
		}
	}
	return r, src, nil
}

// note counts one cell satisfied by src — a resolve source, or "memo" for
// the in-memory memo. A nil receiver counts nothing.
func (m *SweepMetrics) note(src string) {
	if m == nil {
		return
	}
	switch src {
	case "memo":
		m.MemoHits.Add(1)
	case "store-hit":
		m.StoreHits.Add(1)
	case "analytic":
		m.Analytic.Add(1)
	case "simulated":
		m.Simulated.Add(1)
	case "remote":
		m.Remote.Add(1)
	}
}

// Stored looks key up in st (nil = no store) and reports whether the record
// may be served. It is the single owner of the upgrade rule for records that
// predate the perturbation layer's Result metrics: every computed Result has
// Goodput > 0 (exactly 1 on a healthy run), so a stored Goodput of 0 marks a
// legacy record. Its key is still valid (the v3 encoding didn't move), but
// serving it would print zero goodput and percentiles where a fresh run
// reports real ones — so it counts as a miss, and the caller recomputes
// (bit-identical legacy fields, by the determinism contract) and overwrites
// it with the full metrics.
func Stored(st store.Store[cluster.Result], key string) (cluster.Result, bool) {
	if st == nil {
		return cluster.Result{}, false
	}
	if r, ok := st.Get(key); ok && r.Goodput > 0 {
		return r, true
	}
	return cluster.Result{}, false
}

// resolveMode stamps specMode on a lowered scenario (the scenario's own
// non-empty mode wins, mirroring how its perturb block outranks the spec's)
// and resolves auto mode to its concrete per-cell resolution, counting
// escalations on m: analytic when the estimate's bounds are actionable under
// analytic.DefaultPolicy, exact when they straddle a decision boundary (or
// the estimator failed — the simulator is the safe fallback). Specs resolve
// at lowering time, so the cells the engine sees are plain analytic or exact
// cells — same fingerprints, memo entries and store records as an
// explicitly-moded run. Deterministic: the estimator is a pure function of
// the scenario, so the same sweep escalates the same cells on every run,
// every machine and every worker count.
func resolveMode(sc scenario.Scenario, specMode string, m *SweepMetrics) scenario.Scenario {
	if sc.Mode == "" && specMode != "" && specMode != scenario.ModeExact {
		sc.Mode = specMode
	}
	if sc.Mode != scenario.ModeAuto {
		return sc
	}
	if _, b, err := analytic.Estimate(sc); err != nil || analytic.ShouldEscalate(b) {
		sc.Mode = ""
		if m != nil {
			m.Escalated.Add(1)
		}
		return sc
	}
	sc.Mode = scenario.ModeAnalytic
	return sc
}
