// Package scalefold is the public facade of the reproduction: it encodes the
// paper's experiment configurations — which optimizations are active in each
// Figure 7 row, each Figure 8 ladder rung, and each Figure 3 ablation column
// — and runs them on the workload census + cluster simulator. Downstream
// users compose StepConfig values; the cmd/scalefold CLI and bench_test.go
// call the experiment runners here.
//
// Every experiment runner is a thin cell declaration over SweepSpec.Run: its
// configurations are fingerprinted and resolved on the memo and store of the
// SweepSpec the caller passes in, so callers that share one value across
// figures simulate a shared cell — e.g. the A100 reference step — exactly
// once. The package holds no mutable state of its own.
package scalefold

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/workload"
)

// StepConfig is one training configuration to cost: a canonical
// scenario.Scenario plus a display name. Identity — validation, lowering to
// cluster.Options, the versioned fingerprint that keys the memo and the
// persistent store — lives entirely on the embedded Scenario; this wrapper
// only adds the figure-label conveniences the experiment runners want.
type StepConfig struct {
	Name string
	scenario.Scenario
}

// Ablations lists the recognized ablation values ("none" plus the Figure 3
// barrier switches); it aliases the scenario layer's canonical list.
var Ablations = scenario.Ablations

// clusterOptions lowers the step configuration to simulator options. The
// scenario is validated by every user-input path (CLI flags, sweep grids,
// job submission) before it gets here, so a failure is a programming error.
func (c StepConfig) clusterOptions() cluster.Options {
	o, err := c.Options()
	if err != nil {
		panic("scalefold: unvalidated scenario reached the simulator: " + err.Error())
	}
	return o
}

// RunVia resolves the configuration against an explicit store — store hit,
// else compute and write through — with no memo in front, and reports how
// it was satisfied ("store-hit", "simulated" or "analytic"). Fabric workers
// execute claimed cells with it: the shared result store IS their memo, so a
// cell finished by any worker is a hit for every worker. m, when non-nil,
// counts the outcome.
func (c StepConfig) RunVia(st store.Store[cluster.Result], onErr func(error), m *SweepMetrics) (cluster.Result, string) {
	r, src, _ := resolver{store: st, onStoreErr: onErr, metrics: m}.resolve(c) // no runner: never fails
	return r, src
}

// Run simulates the configuration once and returns the cluster result, with
// no memo and no store; batches of cells belong on SweepSpec.Run.
func (c StepConfig) Run() cluster.Result {
	r, _, _ := resolver{}.resolve(c) // no runner: never fails
	return r
}

// StepSeconds simulates and returns the median step time in seconds — the
// quantity a step-time microbenchmark reports (rare data stalls excluded).
func (c StepConfig) StepSeconds() float64 { return c.Run().MedianStep.Seconds() }

// runFigure resolves a figure's cells as one SweepSpec.Run over explicit
// scenarios and returns their results in input order. Only ex's execution
// fields (Workers, Cache, Store, OnStoreErr, Metrics) carry over, so no
// identity field of ex can reach a figure cell: callers that share one ex
// across figures simulate each shared cell once, and the bytes never depend
// on it.
func runFigure(ex SweepSpec, cfgs ...StepConfig) []cluster.Result {
	scs := make([]scenario.Scenario, len(cfgs))
	for i, c := range cfgs {
		scs[i] = c.Scenario
	}
	rows, err := SweepSpec{
		Scenarios: scs, Workers: ex.Workers, Cache: ex.Cache,
		Store: ex.Store, OnStoreErr: ex.OnStoreErr, Metrics: ex.Metrics,
	}.Run(nil)
	if err != nil {
		panic("scalefold: invalid figure cell: " + err.Error())
	}
	res := make([]cluster.Result, len(rows))
	for i, r := range rows {
		res[i] = r.Res
	}
	return res
}

// platformLabel returns the GPU architecture name of a platform for figure
// labels ("H100" for "h100-eos"), falling back to the raw reference.
func platformLabel(platform string) string {
	if p, err := scenario.PlatformByName(platform); err == nil {
		return p.Arch.Name
	}
	return platform
}

// ReferenceConfig is the unoptimized OpenFold baseline on `ranks` GPUs of
// the named platform ("A100", "h100-eos", ... — see the scenario registry).
func ReferenceConfig(platform string, ranks int) StepConfig {
	return StepConfig{
		Name: "OpenFold reference (" + platformLabel(platform) + ")",
		Scenario: scenario.Scenario{
			Platform: platform, Ranks: ranks, DAP: 1,
			Census: workload.Baseline(),
			Seed:   1,
		},
	}
}

// Figure7Config returns the ScaleFold configuration of a Figure 7 bar: the
// fused-kernel + batched-GEMM + bf16 + non-blocking-dataloader training at
// DAP-n. Per the Figure 8 ordering, torch.compile and GC-disable came later
// than the Figure 7 step-time measurements, and CUDA Graph pays off only for
// DAP >= 2 ("CudaGraph is not beneficial for DAP-1", §4.1), so those are
// excluded/conditional here.
func Figure7Config(platform string, ranks, dapN int) StepConfig {
	cen := workload.Options{
		FusedMHA: true, FusedLN: true, FusedAdamSWA: true,
		BatchedGEMM: true, BF16: true, BucketedClip: true,
		GradCheckpoint: dapN <= 1, // DAP frees memory; ckpt off for DAP>=2
		Recycles:       3,
		DAP:            dapN,
	}
	return StepConfig{
		Name: "ScaleFold (" + platformLabel(platform) + ")",
		Scenario: scenario.Scenario{
			Platform: platform, Ranks: ranks, DAP: dapN,
			Census:      cen,
			CUDAGraph:   dapN > 1,
			NonBlocking: true,
			Seed:        1,
		},
	}
}

// FastFoldConfig approximates FastFold: baseline kernels plus DAP (its DAP
// contribution) with checkpointing still on and the stock dataloader.
func FastFoldConfig(platform string, ranks, dapN int) StepConfig {
	cen := workload.Baseline()
	cen.DAP = dapN
	cen.FusedMHA = true // FastFold ships its own fused attention kernels
	cen.FusedLN = true
	cen.GradCheckpoint = dapN <= 1
	return StepConfig{
		Name: "FastFold (" + platformLabel(platform) + ")",
		Scenario: scenario.Scenario{
			Platform: platform, Ranks: ranks, DAP: dapN,
			Census: cen,
			Seed:   1,
		},
	}
}

// Fig7Row is one bar of Figure 7.
type Fig7Row struct {
	Label   string
	Paper   float64 // step seconds reported in the paper
	Config  StepConfig
	Seconds float64 // measured by the simulator (filled by Figure7)
}

// figure7Rows declares the Figure 7 comparison grid: one cell per
// (system, arch, ranks, DAP) bar of the paper's plot.
func figure7Rows() []Fig7Row {
	return []Fig7Row{
		{Label: "OpenFold (A100x128, NoDAP)", Paper: 6.19, Config: ReferenceConfig("A100", 128)},
		{Label: "FastFold (A100x256, DAP2)", Paper: 2.49, Config: FastFoldConfig("A100", 256, 2)},
		{Label: "ScaleFold (A100x256, DAP2)", Paper: 1.88, Config: Figure7Config("A100", 256, 2)},
		{Label: "ScaleFold (H100x128, NoDAP)", Paper: 1.80, Config: Figure7Config("H100", 128, 1)},
		{Label: "ScaleFold (H100x256, DAP2)", Paper: 1.12, Config: Figure7Config("H100", 256, 2)},
		{Label: "ScaleFold (H100x512, DAP4)", Paper: 0.75, Config: Figure7Config("H100", 512, 4)},
		{Label: "ScaleFold (H100x1024, DAP8)", Paper: 0.65, Config: Figure7Config("H100", 1024, 8)},
		{Label: "ScaleFold (A100x1024, DAP8)", Paper: 1.21, Config: Figure7Config("A100", 1024, 8)},
	}
}

// Figure7 reproduces the step-time comparison of Figure 7, running the
// declared cells on ex's memo and store (see runFigure).
func Figure7(ex SweepSpec) []Fig7Row {
	rows := figure7Rows()
	cfgs := make([]StepConfig, len(rows))
	for i, r := range rows {
		cfgs[i] = r.Config
	}
	res := runFigure(ex, cfgs...)
	for i := range rows {
		rows[i].Seconds = res[i].MedianStep.Seconds()
	}
	return rows
}

// Rung is one bar of the Figure 8 optimization ladder.
type Rung struct {
	Label   string
	Paper   float64 // cumulative speedup the paper reports
	Config  StepConfig
	Seconds float64
	Speedup float64 // measured cumulative speedup vs rung 0
}

// ladderRungs declares Figure 8's ladder: each entry applies its delta on
// top of every previous rung, starting from the H100 reference (rung 0, the
// only A100 cell, has no delta — it IS the baseline the speedups divide by).
var ladderRungs = []struct {
	Label string
	Paper float64
	Apply func(*StepConfig)
}{
	{"Reference (A100)", 1.00, nil},
	{"H100", 1.66, func(c *StepConfig) {}},
	{"+Batched GEMM", 1.71, func(c *StepConfig) { c.Census.BatchedGEMM = true }},
	{"+Non-blocking dataloader", 1.78, func(c *StepConfig) { c.NonBlocking = true }},
	{"+BF16", 2.22, func(c *StepConfig) { c.Census.BF16 = true }},
	{"+Triton MHA", 2.49, func(c *StepConfig) { c.Census.FusedMHA = true }},
	{"+Triton LayerNorm", 2.92, func(c *StepConfig) { c.Census.FusedLN = true }},
	{"+Fused Adam+SWA", 3.29, func(c *StepConfig) {
		c.Census.FusedAdamSWA, c.Census.BucketedClip = true, true
	}},
	{"+DAP-8, no grad ckpt", 5.90, func(c *StepConfig) {
		c.Census.DAP, c.DAP, c.Ranks = 8, 8, 1024
		c.Census.GradCheckpoint = false
	}},
	{"+CUDA Graph", 7.84, func(c *StepConfig) { c.CUDAGraph = true }},
	{"+Disable GC", 8.91, func(c *StepConfig) { c.DisableGC = true }},
	{"+torch.compile", 10.39, func(c *StepConfig) { c.Census.TorchCompile = true }},
}

// ladder expands the ladderRungs declaration to one configured rung each.
func ladder() []Rung {
	rungs := make([]Rung, len(ladderRungs))
	cum := ReferenceConfig("H100", 128)
	for i, r := range ladderRungs {
		c := ReferenceConfig("A100", 128)
		if r.Apply != nil {
			r.Apply(&cum)
			c = cum
			c.Name = r.Label
		}
		rungs[i] = Rung{Label: r.Label, Paper: r.Paper, Config: c}
	}
	return rungs
}

// Ladder reproduces Figure 8: optimizations applied cumulatively in the
// paper's order, measured as speedup over the A100 reference. All rungs
// resolve as one run on ex's memo and store (see runFigure).
func Ladder(ex SweepSpec) []Rung {
	rungs := ladder()
	cfgs := make([]StepConfig, len(rungs))
	for i, r := range rungs {
		cfgs[i] = r.Config
	}
	res := runFigure(ex, cfgs...)
	base := res[0].MedianStep.Seconds()
	for i := range rungs {
		rungs[i].Seconds = res[i].MedianStep.Seconds()
		rungs[i].Speedup = base / rungs[i].Seconds
	}
	return rungs
}

// Barrier is one Figure 3 stacked-bar component.
type Barrier struct {
	Name  string
	Share float64 // fraction of the actual-vs-optimal gap (column sums to 1)
	Gap   time.Duration
}

// figure3Config returns the §3.1 measurement configuration at DAP-n: DAP
// applied to the otherwise-unoptimized training — blocking loader, no CUDA
// graph, checkpointing freed by DAP's memory savings. The paper's profiled
// measurement runs read far ahead in the dataset, hence the deep prefetch;
// the steady-state stall behaviour belongs to the TTT experiments.
func figure3Config(dapN int) StepConfig {
	cen := workload.Baseline()
	cen.DAP = dapN
	cen.GradCheckpoint = false // §3.1 measures DAP runs with ckpt freed
	return StepConfig{
		Name: fmt.Sprintf("Figure 3 (DAP-%d)", dapN),
		Scenario: scenario.Scenario{
			Platform: "A100", Ranks: 128 * dapN, DAP: dapN,
			Census:   cen,
			Seed:     3,
			Prefetch: 128,
		},
	}
}

// figure3Bars decomposes a simulated DAP-n measurement into the five
// barrier components: the gap between the measured step and the per-factor
// idealized step, computed deterministically from the simulator's accounting
// (the paper subtracts per-factor idealized times; our simulator exposes the
// same quantities directly).
func figure3Bars(dapN int, res cluster.Result) []Barrier {
	c := figure3Config(dapN)
	prog := scenario.CensusFor(c.Census)

	// Poor kernel scalability: the extra time DAP-shrunk kernels take
	// beyond perfect 1/n scaling of their DAP-1 durations, caused by
	// falling down the bandwidth-efficiency curve.
	cen1 := c.Census
	cen1.DAP = 1
	prog1 := scenario.CensusFor(cen1)
	platform, err := scenario.PlatformByName(c.Platform)
	if err != nil {
		panic("scalefold: unvalidated scenario reached the simulator: " + err.Error())
	}
	arch := platform.Arch
	var kernelGap time.Duration
	for i, g := range prog.Groups {
		if g.Serial {
			continue
		}
		g1 := prog1.Groups[i]
		actual := time.Duration(g.Calls) * arch.KernelDuration(g.PerCallFlops(), g.PerCallBytes(), false)
		ideal := time.Duration(g1.Calls) * arch.KernelDuration(g1.PerCallFlops(), g1.PerCallBytes(), false) / time.Duration(dapN)
		if actual > ideal {
			kernelGap += actual - ideal
		}
	}

	serialGap := res.Break.SerialPart - res.Break.SerialPart/time.Duration(dapN)

	out := []Barrier{
		{Name: "CPU overhead", Gap: res.Break.CPUExposed},
		{Name: "Imbalance communication", Gap: res.Break.CommWaitMedian + res.Break.DataWaitMedian},
		{Name: "Serial modules", Gap: serialGap},
		{Name: "Poor kernel scalability", Gap: kernelGap},
		{Name: "Communication workload", Gap: res.Break.CommXfer},
	}
	var totalGap time.Duration
	for _, b := range out {
		totalGap += b.Gap
	}
	if totalGap > 0 {
		for i := range out {
			out[i].Share = float64(out[i].Gap) / float64(totalGap)
		}
	}
	return out
}

// Figure3DAPs are the DAP degrees the paper's barrier ablation plots.
var Figure3DAPs = []int{2, 4, 8}

// Figure3 reproduces one barrier-breakdown column on ex's memo and store.
func Figure3(ex SweepSpec, dapN int) []Barrier {
	return figure3Bars(dapN, runFigure(ex, figure3Config(dapN))[0])
}

// Figure3All runs the whole barrier ablation as one run over the DAP axis
// on ex's memo and store and returns the columns keyed by DAP degree.
func Figure3All(ex SweepSpec) map[int][]Barrier {
	cfgs := make([]StepConfig, len(Figure3DAPs))
	for i, d := range Figure3DAPs {
		cfgs[i] = figure3Config(d)
	}
	res := runFigure(ex, cfgs...)
	out := make(map[int][]Barrier, len(Figure3DAPs))
	for i, d := range Figure3DAPs {
		out[d] = figure3Bars(d, res[i])
	}
	return out
}

// baselineDAPConfigs declares the §3.1 cells: the DAP-1 reference, then
// DAP applied naively to the unoptimized training at DAP-2/4/8.
func baselineDAPConfigs() []StepConfig {
	cfgs := []StepConfig{ReferenceConfig("A100", 128)}
	for _, d := range []int{2, 4, 8} {
		cen := workload.Baseline()
		cen.DAP = d
		cfgs = append(cfgs, StepConfig{Name: "baseline+DAP", Scenario: scenario.Scenario{
			Platform: "A100", Ranks: 128 * d, DAP: d, Census: cen, Seed: 1,
		}})
	}
	return cfgs
}

// BaselineDAPSpeedups reproduces the §3.1 observation that naively applying
// DAP to the unoptimized training yields only 1.42×/1.57×/≈1.57× at
// DAP-2/4/8. Returned values are speedups over the DAP-1 baseline.
func BaselineDAPSpeedups(ex SweepSpec) map[int]float64 {
	res := runFigure(ex, baselineDAPConfigs()...)
	base := res[0].MedianStep.Seconds()
	out := map[int]float64{}
	for i, d := range []int{2, 4, 8} {
		out[d] = base / res[i+1].MedianStep.Seconds()
	}
	return out
}

// Table1Shares returns the runtime shares and call counts of Table 1,
// measured on the simulated baseline: CPU overhead plus the three kernel
// categories.
type Table1Row struct {
	Kind  string
	Share float64
	Calls int
}

// Table1 measures the kernel-category breakdown on the A100 baseline.
func Table1() []Table1Row {
	prog := workload.Census(model.FullConfig(), workload.Baseline())
	arch := gpu.A100()
	tot := prog.Totals()
	var times [3]time.Duration
	for i, cat := range []workload.Category{workload.CatMath, workload.CatMem, workload.CatMemOp} {
		for _, g := range prog.Groups {
			if g.Cat == cat {
				times[i] += time.Duration(g.Calls) * arch.KernelDuration(g.PerCallFlops(), g.PerCallBytes(), false)
			}
		}
	}
	// CPU overhead: exposed launch gaps plus the host-side work the
	// profiler attributes to every launch (driver call, Python dispatch),
	// which Table 1 counts as CPU time even when the GPU stays busy.
	const hostPerLaunch = 2 * time.Microsecond
	cpu := time.Duration(prog.TotalCalls()) * hostPerLaunch
	for _, g := range prog.Groups {
		per := arch.KernelDuration(g.PerCallFlops(), g.PerCallBytes(), false)
		if gap := arch.LaunchOverhead - per; gap > 0 {
			cpu += time.Duration(g.Calls) * gap
		}
	}
	total := cpu + times[0] + times[1] + times[2]
	rows := []Table1Row{
		{Kind: "CPU Overhead", Share: float64(cpu) / float64(total)},
		{Kind: "Math-bounded", Share: float64(times[0]) / float64(total), Calls: tot[workload.CatMath].Calls},
		{Kind: "Memory-bounded", Share: float64(times[1]) / float64(total), Calls: tot[workload.CatMem].Calls},
		{Kind: "Memory-operation", Share: float64(times[2]) / float64(total), Calls: tot[workload.CatMemOp].Calls},
	}
	return rows
}

// PrepTimeCurve returns the sorted Figure 4 curve (n batches, seconds).
func PrepTimeCurve(n int) []float64 {
	gen := dataset.NewGenerator(11)
	return dataset.SortedPrepTimes(gen, dataset.DefaultPrepTimeModel(), n, 7)
}
