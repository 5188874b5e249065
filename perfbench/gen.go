package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/perturb"
	"repro/internal/scalefold"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/sweep"
)

// Workload inputs. Every generator here is a pure function of the run seed:
// the program under test sees only what these return.

// exactSpec is sweep-exact's input: the CLI's default 24-cell grid. It does
// not depend on the seed, because its CSV must equal `scalefold sweep`'s
// default output byte for byte (testdata/sweep_default.csv).
func exactSpec() scalefold.SweepSpec { return scalefold.DefaultSweepSpec() }

// analyticVariants is how many perturbation variants sweep-analytic draws
// from. The seed picks one; testdata/analytic_digests.txt pins each
// variant's rows, so any seed can be checked against a committed digest.
const analyticVariants = 32

// analyticSeedReplicas is sweep-analytic's seed-replica axis: 432 cells per
// replica (3 platforms × 6 rank counts × 4 DAP widths × 6 ablations).
const analyticSeedReplicas = 2

func analyticVariant(seed int64) int { return int(uint64(seed) % analyticVariants) }

// analyticSpec is sweep-analytic's grid under one straggler-plus-failure
// perturbation variant.
func analyticSpec(variant int) scalefold.SweepSpec {
	r := rand.New(rand.NewSource(int64(variant) + 1))
	return scalefold.SweepSpec{
		Profile:   "scalefold",
		Arches:    []string{"h100-eos", "a100-eos", "a100-selene"},
		Ranks:     []int{64, 128, 256, 512, 1024, 2048},
		DAPs:      []int{1, 2, 4, 8},
		Ablations: append([]string(nil), scalefold.Ablations...),
		Seeds:     analyticSeedReplicas,
		Mode:      scenario.ModeAnalytic,
		Perturb: &perturb.Spec{
			SlowdownProb:   float64(1+r.Intn(10)) / 100,
			SlowdownFactor: 1.5 + float64(r.Intn(6))/2,
			FailProb:       float64(1+r.Intn(9)) * 1e-5,
			RestartCost:    float64(30 + 10*r.Intn(10)),
		},
	}
}

// fabricSpec is fabric-sweep's job: 480 small cells (16 ranks, 1 step), so
// dispatch is a large share of each cell. The seed picks the straggler
// perturbation, which changes every cell's identity and result.
func fabricSpec(seed int64) service.JobSpec {
	r := rand.New(rand.NewSource(seed))
	return service.JobSpec{
		Profile:   "scalefold",
		Arches:    []string{"h100-eos"},
		Ranks:     []int{16},
		DAPs:      []int{1, 2, 4, 8},
		Ablations: append([]string(nil), scalefold.Ablations...),
		Seeds:     20,
		Steps:     1,
		Perturb: &perturb.Spec{
			SlowdownProb:   float64(5+r.Intn(20)) / 100,
			SlowdownFactor: 1.5 + float64(r.Intn(6))/2,
		},
	}
}

// sweepOf is the local SweepSpec a grid JobSpec runs as on the server.
func sweepOf(js service.JobSpec) scalefold.SweepSpec {
	return scalefold.SweepSpec{
		Profile: js.Profile, Arches: js.Arches, Ranks: js.Ranks, DAPs: js.DAPs,
		Ablations: js.Ablations, Seeds: js.Seeds, Steps: js.Steps,
		Perturb: js.Perturb, Mode: js.Mode, Scenarios: js.Scenarios,
	}
}

// searchOf is the local SearchSpec a SearchJobSpec runs as on the server.
func searchOf(js service.SearchJobSpec) scalefold.SearchSpec {
	return scalefold.SearchSpec{
		Objective: js.Objective, Platform: js.Arch, Ranks: js.Ranks, DAPs: js.DAPs,
		FailLo: js.FailLo, FailHi: js.FailHi, RestartCost: js.RestartCost,
		CliffGoodput: js.CliffGoodput, Tolerance: js.Tolerance, Budget: js.Budget,
		Steps: js.Steps, Mode: js.Mode, SimWorkers: js.SimWorkers,
	}
}

// serve-mixed job classes.
const (
	classRepeat   = "repeat"
	classNew      = "new"
	classAnalytic = "analytic"
	classSearch   = "search"
)

var classes = []string{classRepeat, classNew, classAnalytic, classSearch}

// Schedule sizing for serve-mixed. classWeights sets each class's share of
// the schedule, so that the all-jobs p50 and p90 land inside one class's
// latency range rather than on the boundary between two.
const (
	serveJobs     = 80
	repeatPool    = 16 // pre-populated scenarios the repeat class draws from
	repeatCells   = 4
	newCells      = 3
	analyticCells = 16
	fillerRecords = 100_000
	searchBudget  = 8
	searchSteps   = 2
)

var classWeights = map[string]int{classRepeat: 35, classNew: 30, classAnalytic: 20, classSearch: 15}

// serveJob is one scheduled serve-mixed job: a sweep or a search.
type serveJob struct {
	Class  string
	Sweep  *service.JobSpec
	Search *service.SearchJobSpec
}

// repeatScenarios is the pool the repeat class reads; the fixture store
// holds every one of them.
func repeatScenarios(seed int64) []scenario.Scenario {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	daps := []int{1, 2, 4, 8}
	out := make([]scenario.Scenario, repeatPool)
	for i := range out {
		sc := scalefold.Figure7Config("h100-eos", 32, daps[r.Intn(len(daps))]).Scenario
		sc.Ablation = scalefold.Ablations[r.Intn(len(scalefold.Ablations))]
		sc.Seed = r.Int63()
		sc.Steps = 2
		out[i] = sc
	}
	return out
}

// serveSchedule is serve-mixed's job list, in submission order. Apart from
// the repeat class, no two jobs share a cell, so every job's store-hit and
// simulation counts are fixed by the seed whatever order the clients run
// them in.
func serveSchedule(seed int64) []serveJob {
	r := rand.New(rand.NewSource(seed))
	pool := repeatScenarios(seed)
	daps := []int{1, 2, 4, 8}
	platforms := []string{"h100-eos", "a100-eos", "a100-selene"}
	// Fresh cells cycle through platform, DAP width and ablation by their
	// ordinal and draw only their seed, so every seed's schedule carries the
	// same mix of cell costs.
	cells := 0
	fresh := func(ranks int) scenario.Scenario {
		cells++
		sc := scalefold.Figure7Config(platforms[cells%len(platforms)], ranks, daps[cells%len(daps)]).Scenario
		sc.Ablation = scalefold.Ablations[cells%len(scalefold.Ablations)]
		sc.Seed = r.Int63()
		return sc
	}
	var bag []string
	for _, c := range classes {
		for i := 0; i < classWeights[c]*serveJobs/100; i++ {
			bag = append(bag, c)
		}
	}
	r.Shuffle(len(bag), func(i, j int) { bag[i], bag[j] = bag[j], bag[i] })
	jobs := make([]serveJob, len(bag))
	searches := 0
	for i, c := range bag {
		j := serveJob{Class: c}
		switch c {
		case classRepeat:
			js := service.JobSpec{}
			for _, k := range r.Perm(len(pool))[:repeatCells] {
				js.Scenarios = append(js.Scenarios, pool[k])
			}
			j.Sweep = &js
		case classNew:
			js := service.JobSpec{}
			for k := 0; k < newCells; k++ {
				sc := fresh(16)
				sc.Steps = 2
				js.Scenarios = append(js.Scenarios, sc)
			}
			j.Sweep = &js
		case classAnalytic:
			js := service.JobSpec{Mode: scenario.ModeAnalytic}
			for k := 0; k < analyticCells; k++ {
				js.Scenarios = append(js.Scenarios, fresh(64<<(k%5)))
			}
			j.Sweep = &js
		case classSearch:
			// A search's ordinal picks its restart cost, platform and lowest
			// rung, so no two searches share a probe (the unperturbed probe
			// sits on the lowest rung) while every search costs about the
			// same, and every seed gets the same search work.
			searches++
			j.Search = &service.SearchJobSpec{
				Objective:   "maximize-goodput",
				Arch:        platforms[searches/5%3],
				Ranks:       []int{6 + 2*(searches%5), 16},
				DAPs:        []int{1, 2},
				FailLo:      1e-4,
				FailHi:      1e-1,
				RestartCost: float64(20 + searches),
				Tolerance:   0.25,
				Budget:      searchBudget,
				Steps:       searchSteps,
				Mode:        scenario.ModeAuto,
			}
		}
		jobs[i] = j
	}
	return jobs
}

// populateServeStore writes serve-mixed's fixture: the repeat pool's real
// results (simulated here, through the same local sweep path the checks
// use) plus fillerRecords seeded filler records under fresh v3 keys.
func populateServeStore(dir string, seed int64, fillers int) error {
	d, err := store.OpenDisk[cluster.Result](dir)
	if err != nil {
		return err
	}
	spec := scalefold.SweepSpec{
		Scenarios: repeatScenarios(seed),
		Cache:     sweep.NewCache[cluster.Result](),
		Store:     d,
	}
	if _, err := spec.Run(nil); err != nil {
		d.Close()
		return fmt.Errorf("populate repeat pool: %w", err)
	}
	r := rand.New(rand.NewSource(seed ^ 0xf111))
	for i := 0; i < fillers; i++ {
		key := fmt.Sprintf("v3:%016x%016x", r.Uint64(), r.Uint64())
		if err := d.Put(key, fillerResult(r)); err != nil {
			d.Close()
			return err
		}
	}
	return d.Close()
}

// fillerResult is a plausible healthy-cluster Result, so filler records have
// realistic sizes.
func fillerResult(r *rand.Rand) cluster.Result {
	ms := func(lo, span int) time.Duration { return time.Duration(lo+r.Intn(span)) * time.Millisecond }
	var res cluster.Result
	res.MedianStep = ms(500, 2000)
	res.MeanStep = res.MedianStep + ms(0, 50)
	res.P99Step = res.MeanStep + ms(0, 500)
	res.GraphCapture = ms(10_000, 30_000)
	res.Break.GPUCompute = res.MedianStep * 2 / 3
	res.Break.CPUExposed = ms(0, 200)
	res.Break.CommXfer = ms(0, 50)
	res.Break.CommWait = ms(0, 400)
	res.Goodput = 1
	return res
}

// copyDir copies a flat store directory (segments and sidecars).
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
