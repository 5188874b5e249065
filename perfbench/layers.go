package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/analytic"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/workload"
)

// Replay sizes: fixed counts, so every count a replay reports repeats
// exactly for a given seed.
const (
	drawCells    = 8   // cells whose prep-time streams are replayed
	drawsPerCell = 256 // stream indices replayed per cell
	maxEstimates = 256
	storeSamples = 256
)

// maxSimulations bounds the serial cluster.Simulate replay per workload, so
// the replay costs about as much on each: the default grid's cells are 256
// ranks, the others 16.
var maxSimulations = map[string]int{"sweep-exact": 4, "serve-mixed": 32, "fabric-sweep": 48}

// replayCells returns a workload's cells split by how the program resolves
// them: exact cells run cluster.Simulate, analytic cells analytic.Estimate.
// Both lists are in execution order.
func replayCells(name string, seed int64) (exact, est []scenario.Scenario, err error) {
	switch name {
	case "sweep-exact":
		exact, err = lower(exactSpec())
	case "sweep-analytic":
		est, err = lower(analyticSpec(analyticVariant(seed)))
	case "fabric-sweep":
		exact, err = lower(sweepOf(fabricSpec(seed)))
	case "serve-mixed":
		for _, j := range serveSchedule(seed) {
			switch j.Class {
			case classNew:
				exact = append(exact, j.Sweep.Scenarios...)
			case classAnalytic:
				est = append(est, j.Sweep.Scenarios...)
			}
		}
	}
	return exact, est, err
}

// layerReplay times direct calls into the dataset, workload, cluster,
// analytic, scenario and store layers on the workload's own cells. Layers
// the workload does not exercise report nothing (zero).
func layerReplay(a childArgs) (map[string]float64, error) {
	exact, est, err := replayCells(a.workload, a.seed)
	if err != nil {
		return nil, err
	}
	all := append(append([]scenario.Scenario(nil), exact...), est...)
	m := map[string]float64{}

	// scenario: fingerprint every cell, in rounds until enough calls.
	calls := 0
	t0 := time.Now()
	for calls < 2000 {
		for _, sc := range all {
			_ = sc.Fingerprint()
		}
		calls += len(all)
	}
	m["scenario.fingerprint_us"] = us(time.Since(t0)) / float64(calls)

	// workload: each distinct census once.
	progs := map[string]*workload.Program{}
	var census []float64
	for _, sc := range all {
		k := scenario.CanonicalCensus(sc.Census)
		if progs[k] != nil {
			continue
		}
		t0 := time.Now()
		progs[k] = workload.Census(model.FullConfig(), sc.Census)
		census = append(census, ms(time.Since(t0)))
	}
	m["workload.census_ms"] = mean(census)

	// dataset: the per-index geometry and prep-time draws behind every
	// simulated and estimated cell's data-wait model.
	var geom, prep time.Duration
	draws := 0
	for _, sc := range all[:min(drawCells, len(all))] {
		o, err := sc.Options()
		if err != nil {
			return nil, err
		}
		gs := dataset.NewGenerator(o.Seed + 101).Sampler()
		pt := o.PrepModel.Timer()
		var lens, msas [drawsPerCell]int
		t0 := time.Now()
		for i := range lens {
			lens[i], msas[i] = gs.Geometry(i)
		}
		t1 := time.Now()
		for i := range lens {
			_ = pt.DurationAt(i, lens[i], msas[i], o.Seed)
		}
		geom, prep = geom+t1.Sub(t0), prep+time.Since(t1)
		draws += drawsPerCell
	}
	if draws > 0 {
		m["dataset.geometry_us"] = us(geom) / float64(draws)
		m["dataset.prep_draw_us"] = us(prep) / float64(draws)
	}

	// cluster: serial cold simulations of the first exact cells.
	if n := min(maxSimulations[a.workload], len(exact)); n > 0 {
		var sims []float64
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, sc := range exact[:n] {
			o, err := sc.Options()
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			cluster.Simulate(progs[scenario.CanonicalCensus(sc.Census)], sc.Ranks, sc.DAP, o)
			sims = append(sims, ms(time.Since(t0)))
		}
		runtime.ReadMemStats(&after)
		m["cluster.simulate_ms_p50"] = quantile(sims, 0.5)
		m["cluster.simulate_ms_p90"] = quantile(sims, 0.9)
		m["cluster.allocs_per_sim"] = float64(after.Mallocs-before.Mallocs) / float64(n)
	}

	// analytic: one cold estimate per cell, and the share auto mode would
	// escalate to exact simulation.
	if n := min(maxEstimates, len(est)); n > 0 {
		var ests []float64
		escalated := 0
		for _, sc := range est[:n] {
			t0 := time.Now()
			_, b, err := analytic.Estimate(sc)
			ests = append(ests, us(time.Since(t0)))
			if err != nil {
				return nil, err
			}
			if analytic.ShouldEscalate(b) {
				escalated++
			}
		}
		m["analytic.estimate_us_p50"] = quantile(ests, 0.5)
		m["analytic.estimate_us_p90"] = quantile(ests, 0.9)
		m["analytic.escalated_share"] = float64(escalated) / float64(n)
	}

	if a.workload == "serve-mixed" {
		if err := storeReplay(a, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// storeReplay reopens a copy of serve-mixed's populated store and times
// reads of stored keys and writes of new records on it.
func storeReplay(a childArgs, m map[string]float64) error {
	t0 := time.Now()
	d, err := store.OpenDisk[cluster.Result](filepath.Join(a.dir, "store"))
	if err != nil {
		return err
	}
	m["store.reopen_ms"] = ms(time.Since(t0))
	keys := d.Keys()
	r := rand.New(rand.NewSource(a.seed))
	var gets, puts []float64
	for i := 0; i < storeSamples; i++ {
		k := keys[r.Intn(len(keys))]
		t0 := time.Now()
		_, ok := d.Get(k)
		gets = append(gets, us(time.Since(t0)))
		if !ok {
			d.Close()
			return fmt.Errorf("store replay: stored key %s missing", k)
		}
	}
	for i := 0; i < storeSamples; i++ {
		k := fmt.Sprintf("v3:%016x%016x", r.Uint64(), r.Uint64())
		v := fillerResult(r)
		t0 := time.Now()
		err := d.Put(k, v)
		puts = append(puts, us(time.Since(t0)))
		if err != nil {
			d.Close()
			return err
		}
	}
	m["store.get_us_p50"] = quantile(gets, 0.5)
	m["store.get_us_p90"] = quantile(gets, 0.9)
	m["store.put_us_p50"] = quantile(puts, 0.5)
	m["store.put_us_p90"] = quantile(puts, 0.9)
	return d.Close()
}
