package scalefold

import (
	"time"

	"repro/internal/curve"
	"repro/internal/mlperf"
	"repro/internal/model"
	"repro/internal/workload"
)

// Fig9Bar is one stacked bar of Figure 9.
type Fig9Bar struct {
	Label  string
	Break  mlperf.Breakdown
	Shares map[string]float64
	// PaperShares are the fractions read off the paper's Figure 9.
	PaperShares map[string]float64
}

// mlperfConfigs declares the two cells Figures 9 and 10 cost: the reference
// at the MLPerf scale (256 H100, global batch 256 — one sample per rank, no
// DAP) and the fully-optimized training at 2048 H100 with DAP-8 (the
// ladder's final configuration).
func mlperfConfigs() []StepConfig {
	sf := Figure7Config("H100", 2048, 8)
	sf.Census.TorchCompile = true
	sf.DisableGC = true
	return []StepConfig{ReferenceConfig("H100", 256), sf}
}

// mlperfSteps returns the mean step times of mlperfConfigs, resolved on
// ex's memo and store.
func mlperfSteps(ex SweepSpec) (ref, sf time.Duration) {
	res := runFigure(ex, mlperfConfigs()...)
	return res[0].MeanStep, res[1].MeanStep
}

// Figure9 reproduces the time-to-train breakdown bars on ex's memo and
// store (see runFigure).
func Figure9(ex SweepSpec) []Fig9Bar {
	refStep, sf := mlperfSteps(ex)
	ref := mlperf.TimeToTrain(mlperf.ReferenceRun(refStep))
	noAsync := mlperf.TimeToTrain(mlperf.ScaleFoldRun(sf, false))
	async := mlperf.TimeToTrain(mlperf.ScaleFoldRun(sf, true))
	return []Fig9Bar{
		{
			Label: "Ref", Break: ref, Shares: ref.Shares(),
			PaperShares: map[string]float64{"train": 0.78, "eval": 0.22},
		},
		{
			Label: "ScaleFold (w/o async eval)", Break: noAsync, Shares: noAsync.Shares(),
			PaperShares: map[string]float64{"train": 0.53, "eval": 0.43, "init": 0.01, "compilation": 0.03},
		},
		{
			Label: "ScaleFold (with async eval)", Break: async, Shares: async.Shares(),
			PaperShares: map[string]float64{"train": 0.74, "train_eval_comm": 0.14, "init": 0.09, "compilation": 0.03},
		},
	}
}

// Figure10 reproduces the time-to-train bars (minutes) on ex's memo and
// store (see runFigure).
func Figure10(ex SweepSpec) []mlperf.Fig10Row {
	refStep, sf := mlperfSteps(ex)
	ref := mlperf.TimeToTrain(mlperf.ReferenceRun(refStep))
	noAsync := mlperf.TimeToTrain(mlperf.ScaleFoldRun(sf, false))
	async := mlperf.TimeToTrain(mlperf.ScaleFoldRun(sf, true))
	return []mlperf.Fig10Row{
		{Label: "Reference (H100x256)", Paper: 48 * time.Minute, Minutes: ref.Total().Minutes(), Break: ref},
		{Label: "ScaleFold (H100x2048, DAP8, NoAsyncEval)", Paper: 11 * time.Minute, Minutes: noAsync.Total().Minutes(), Break: noAsync},
		{Label: "ScaleFold (H100x2080, DAP8)", Paper: 8 * time.Minute, Minutes: async.Total().Minutes(), Break: async},
	}
}

// figure11Configs declares the two pretraining phases: global batch 128 on
// 1024 training GPUs, then global batch 256 on 2048 training GPUs with the
// Triton MHA kernel disabled (§4.2).
func figure11Configs() []StepConfig {
	p1 := Figure7Config("H100", 1024, 8)
	p1.Census.TorchCompile = true
	p1.DisableGC = true

	p2 := Figure7Config("H100", 2048, 8)
	p2.Census.TorchCompile = true
	p2.DisableGC = true
	p2.Census.FusedMHA = false // "disable Triton mha kernel" for GBS 256
	return []StepConfig{p1, p2}
}

// Figure11 reproduces the pretraining schedule: the avg_lddt_ca curve and
// the end-to-end wall time of figure11Configs' two phases, resolved on ex's
// memo and store (see runFigure).
func Figure11(ex SweepSpec) (curve.Schedule, curve.Result) {
	res := runFigure(ex, figure11Configs()...)
	sched := curve.PaperSchedule(res[0].MedianStep, res[1].MedianStep)
	return sched, sched.Pretrain()
}

// KernelCensus exposes the baseline census for the Table 1 CLI output.
func KernelCensus() *workload.Program {
	return workload.Census(model.FullConfig(), workload.Baseline())
}
