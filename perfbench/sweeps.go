package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/scalefold"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/sweep"
)

// sweepDigest is the checked output of a local sweep: the canonical CSV,
// plus, for non-exact modes, every Result field the CSV leaves out.
func sweepDigest(spec scalefold.SweepSpec, rows []scalefold.SweepRow) (string, error) {
	var buf bytes.Buffer
	if err := scalefold.SweepTable(rows).WriteCSV(&buf); err != nil {
		return "", err
	}
	if spec.Mode != "" && spec.Mode != scenario.ModeExact {
		res := make([]cluster.Result, len(rows))
		for i, r := range rows {
			res[i] = r.Res
		}
		if err := json.NewEncoder(&buf).Encode(res); err != nil {
			return "", err
		}
	}
	return digestOf(buf.Bytes()), nil
}

// runLocal runs a sweep cold in this process: fresh memo, in-memory store.
func runLocal(spec scalefold.SweepSpec) ([]scalefold.SweepRow, error) {
	spec.Cache = sweep.NewCache[cluster.Result]()
	spec.Store = store.NewMem[cluster.Result]()
	return spec.Run(nil)
}

// lower returns the cells a sweep would execute, without executing them: a
// gate that never runs its cell leaves every row lowered but unresolved.
func lower(spec scalefold.SweepSpec) ([]scenario.Scenario, error) {
	spec.Gate = func(func()) {}
	rows, err := runLocal(spec)
	if err != nil {
		return nil, err
	}
	var out []scenario.Scenario
	for _, r := range rows {
		if r.SkipReason == "" {
			out = append(out, r.Config.Scenario)
		}
	}
	return out, nil
}

// repSweep is one repetition of sweep-exact or sweep-analytic: set up, then
// one timed pass of the whole grid through SweepSpec.Run.
func repSweep(a childArgs, spec scalefold.SweepSpec, sp *spans) (repResult, error) {
	// Set-up: validation and lowering, then census warm-up through a tiny
	// sweep of the same profile, so the timed pass starts with every census
	// it needs already built.
	if err := spec.Validate(); err != nil {
		return repResult{}, err
	}
	warm := spec
	warm.Ranks = []int{slices.Max(spec.DAPs)}
	warm.Ablations = []string{"none"}
	warm.Seeds, warm.Steps = 1, 1
	if _, err := runLocal(warm); err != nil {
		return repResult{}, fmt.Errorf("census warm-up: %w", err)
	}
	res := repResult{SetupS: a.sinceSpawn()}
	if a.mode == "setup" {
		return res, nil
	}

	workers := runtime.GOMAXPROCS(0)
	var met scalefold.SweepMetrics
	var st store.Store[cluster.Result] = store.NewMem[cluster.Result]()
	spec.Workers = workers
	spec.Cache = sweep.NewCache[cluster.Result]()
	spec.Metrics = &met
	passID := sp.reserve()
	var tracerStart time.Time
	if sp != nil {
		st = timedStore{st, sp, passID}
		spec.Gate = func(run func()) {
			t0 := time.Now()
			run()
			sp.add(passID, "sweep.gate", t0, time.Now())
		}
		spec.OnEstimate = func(d time.Duration) {
			now := time.Now()
			sp.add(passID, "analytic.estimate", now.Add(-d), now)
		}
		tracerStart = time.Now()
		spec.Trace = obs.NewTracer()
	}
	spec.Store = st
	t0, c0 := time.Now(), cpuTime()
	rows, err := spec.Run(nil)
	end := time.Now()
	res.PassCPUS = (cpuTime() - c0).Seconds()
	if err != nil {
		return res, err
	}
	res.PassS = end.Sub(t0).Seconds()
	digest, err := sweepDigest(spec, rows)
	if err != nil {
		return res, err
	}
	res.Ops = []opResult{{Key: "pass", Class: "sweep", Cells: len(rows), LatencyMS: ms(end.Sub(t0)), Digest: digest}}
	if sp == nil {
		return res, nil
	}
	sp.addAs(passID, 0, "sweep.pass", t0, end)
	cells := addTracerCells(sp, passID, tracerStart, spec.Trace.Events())
	gates := sp.durations("sweep.gate")
	wall := end.Sub(t0) * time.Duration(workers)
	res.Layer = map[string]float64{
		"sweep.cell_ms_p50":  quantile(msOf(gates), 0.5),
		"sweep.cell_ms_p90":  quantile(msOf(gates), 0.9),
		"sweep.idle_share":   1 - float64(sum(gates))/float64(wall),
		"cluster.busy_share": float64(sum(cells["simulated"])) / float64(wall),
		"store.get_us_p50":   quantile(usOf(sp.durations("store.get")), 0.5),
		"store.get_us_p90":   quantile(usOf(sp.durations("store.get")), 0.9),
		"store.put_us_p50":   quantile(usOf(sp.durations("store.put")), 0.5),
		"store.put_us_p90":   quantile(usOf(sp.durations("store.put")), 0.9),
	}
	addSweepCounts(res.Layer, met.Simulated.Load(), met.Analytic.Load(), met.MemoHits.Load(),
		met.StoreHits.Load(), met.Remote.Load())
	return res, nil
}

// addSweepCounts records how cells were satisfied, and the store's hit
// ratio over the cells that reached it.
func addSweepCounts(m map[string]float64, simulated, analytic, memo, storeHits, remote int64) {
	m["sweep.simulated"] = float64(simulated)
	m["sweep.analytic"] = float64(analytic)
	m["sweep.memo_hits"] = float64(memo)
	m["sweep.store_hits"] = float64(storeHits)
	m["sweep.remote"] = float64(remote)
	if reached := storeHits + simulated + analytic + remote; reached > 0 {
		m["store.hit_ratio"] = float64(storeHits) / float64(reached)
	}
}

// addTracerCells copies an obs.Tracer's cell spans (times relative to the
// tracer's origin) into sp and returns their durations by resolution
// source.
func addTracerCells(sp *spans, parent int64, origin time.Time, evs []obs.TraceEvent) map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for _, ev := range evs {
		if ev.Ph != "X" || ev.Cat != "cell" {
			continue
		}
		start := origin.Add(time.Duration(ev.TS * float64(time.Microsecond)))
		d := time.Duration(ev.Dur * float64(time.Microsecond))
		src := ev.Args["source"]
		sp.add(parent, "cell "+src, start, start.Add(d))
		out[src] = append(out[src], d)
	}
	return out
}
