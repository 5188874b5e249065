package cluster

import (
	"math"
	"time"

	"repro/internal/comm"
	"repro/internal/dap"
	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// Skeleton is the deterministic frame of one scenario's step: everything
// Simulate derives before it draws a random number. Simulate marches its
// ranks through it; the closed-form estimator (package analytic) reads the
// same fields, so its deterministic components equal the simulator's by
// construction.
type Skeleton struct {
	Plan dap.Plan

	// One pass over the census: roofline kernel time and its serial share.
	GPUCompute time.Duration
	SerialPart time.Duration
	// SyncEvents counts the step's DAP collectives.
	SyncEvents int

	// GraphCapture is the one-time CUDA-graph capture cost (Result field of
	// the same name).
	GraphCapture time.Duration
	// CPUExposedStep is the exposed host time of one rank's step, Python GC
	// included. It is the same for every rank and every step.
	CPUExposedStep time.Duration

	// March geometry. With March, each DAP group of GroupSize ranks syncs
	// at every one of SyncEvents barriers; otherwise every rank is its own
	// group of one advancing in a single chunk. A step has Intervals compute
	// chunks of PerRankChunk GPU time per rank; XferAcc is the step's sync
	// transfer on the march.
	March            bool
	Groups           int
	GroupSize        int
	Intervals        int
	PerRankChunk     time.Duration
	XferAcc          time.Duration
	AllReduce        time.Duration // data-parallel gradient all-reduce
	AllReduceVisible time.Duration // all-reduce plus the clip it cannot hide
	ClipExposed      time.Duration // AllReduceVisible - AllReduce

	// Per-chunk jitter: relative execution-time spread, the chance a
	// background CPU straggler delays a chunk, and CPU peaks per step.
	ChunkCV       float64
	StragglerProb float64
	PeaksPerStep  float64

	// Epoch is how many batches each rank's data pipeline replays (see
	// PrepStream and Waits).
	Epoch int

	evCost       time.Duration // one sync event on the march
	cpuChunk     time.Duration // per-rank host time of one chunk
	warmup       int           // leading waits Waits discards
	stepEstimate time.Duration // step time the pipeline replay assumes
	o            Options       // normalized
}

// NewSkeleton derives the step skeleton of a program on ranks GPUs at the
// given DAP degree. It fails only when ranks and degree form no DAP plan.
func NewSkeleton(prog *workload.Program, ranks, dapDegree int, o Options) (Skeleton, error) {
	plan, err := dap.NewPlan(ranks, dapDegree)
	if err != nil {
		return Skeleton{}, err
	}
	o = o.normalized()
	sk := Skeleton{Plan: plan, o: o}

	// Launches whose issue cost exceeds the kernel's own duration leave the
	// GPU idle (approximated per group): the exposed-CPU baseline.
	exposeCPU := !o.CUDAGraph && !o.ZeroLaunchOverhead
	var cpuExposedBase, xferPerStep time.Duration
	var launches int
	for _, g := range prog.Groups {
		if o.ZeroSerial && g.Serial {
			continue
		}
		perCall := o.Arch.KernelDuration(g.PerCallFlops(), g.PerCallBytes(), o.FlatEfficiency)
		d := time.Duration(g.Calls) * perCall
		sk.GPUCompute += d
		if g.Serial {
			sk.SerialPart += d
		}
		launches += g.Calls
		if exposeCPU {
			if gap := o.Arch.LaunchOverhead - perCall; gap > 0 {
				cpuExposedBase += time.Duration(g.Calls) * gap
			}
		}
	}
	for _, s := range prog.Syncs {
		sk.SyncEvents += s.Count
		bytes := s.Bytes
		if o.ZeroCommVolume {
			bytes = 0
		}
		xferPerStep += time.Duration(s.Count) * o.Topo.Cost(s.Op, plan.Degree, bytes)
	}
	if o.CUDAGraph {
		// All recycling scenarios (1..4 recycles) are captured once during
		// warmup; steady-state steps replay from the cache. Python GC still
		// stalls the host between replays until disabled.
		graphs := gpu.NewGraphCache(0)
		for key := 0; key < 4; key++ {
			sk.GraphCapture += graphs.Launch(o.Arch, key, launches, o.CPU, 0)
		}
		sk.CPUExposedStep = o.Arch.GraphReplayOverhead + gcCost(o.CPU, launches)
	} else if !o.ZeroLaunchOverhead {
		sk.CPUExposedStep = cpuExposedBase + gcCost(o.CPU, launches)
	}
	sk.Intervals = sk.SyncEvents + 1

	// Per-kernel sync marching applies when the DAP degree shards kernels
	// (Degree > 1 with sync events). One sync event costs its mean transfer
	// plus the NCCL kernel launch latency, which CUDA graphs absorb.
	sk.March = plan.Degree > 1 && sk.SyncEvents > 0
	sk.Groups, sk.GroupSize = ranks, 1
	if sk.March {
		sk.Groups, sk.GroupSize = plan.DPWays, plan.Degree
		sk.evCost = xferPerStep / time.Duration(sk.SyncEvents)
		if !o.CUDAGraph {
			sk.evCost += 2 * o.Arch.LaunchOverhead
		}
		sk.XferAcc = time.Duration(sk.SyncEvents) * sk.evCost
	}
	sk.PerRankChunk = sk.GPUCompute / time.Duration(sk.Intervals)
	sk.cpuChunk = sk.CPUExposedStep / time.Duration(sk.Intervals)
	sk.AllReduce = o.Topo.AllReduce(plan.DPWays, prog.GradBytes/float64(plan.Degree))
	// Gradient clipping: bucketed clip hides under the all-reduce.
	clipTime := time.Duration(prog.ClipKernels) * o.Arch.LaunchOverhead
	sk.AllReduceVisible, _ = comm.OverlapGradClip(sk.AllReduce, clipTime)
	sk.ClipExposed = sk.AllReduceVisible - sk.AllReduce

	// A chunk of K kernels has duration CV of roughly 1/sqrt(K) of the
	// per-kernel CV. Fine-grained DAP sync points mean few kernels per
	// chunk, hence large relative jitter — the reason imbalance dominates
	// the Figure 3 gap at high DAP degrees. CUDA graphs remove the
	// launch-time component of that variance, and most of the straggler
	// exposure.
	kernelsPerChunk := max(1, float64(launches)/float64(sk.Intervals))
	perKernelCV := 0.35
	sk.StragglerProb = o.CPU.StragglerProb
	if o.CUDAGraph {
		perKernelCV = 0.12
		sk.StragglerProb /= 15
	}
	sk.ChunkCV = perKernelCV / math.Sqrt(kernelsPerChunk)
	sk.PeaksPerStep = o.CPU.PeakProb * 2

	// A leading window lets the prefetch queue fill; a trailing pad keeps
	// the epoch end out of the measurement (the non-blocking loader defers
	// slow batches, and at the very end of an epoch it must finally wait
	// for them — steady-state training doesn't see that).
	sk.warmup = max(16, o.Prefetch)
	sk.Epoch = sk.warmup + o.Steps + 16
	sk.stepEstimate = sk.GPUCompute + cpuExposedBase + xferPerStep
	return sk, nil
}

// Waits replays one rank's epoch of prep times (see PrepStream) through its
// data pipeline and returns the trainer's waits for the measured steps.
func (sk *Skeleton) Waits(prep []time.Duration) []time.Duration {
	tl := pipeline.AnalyticSim{PrepTimes: prep, Workers: sk.o.Workers, Prefetch: sk.o.Prefetch, NonBlocking: sk.o.NonBlockingPipeline}.Run(sk.stepEstimate)
	return tl.Wait[sk.warmup : sk.warmup+sk.o.Steps]
}

// gcCost is the per-step host stall from Python garbage collection: the
// interpreter still traverses its object graph proportionally to the amount
// of per-step Python work (approximated by the traced launch count), whether
// or not the kernels themselves were replayed from a CUDA graph.
func gcCost(c gpu.CPUModel, launches int) time.Duration {
	if !c.GCEnabled || c.GCInterval <= 0 {
		return 0
	}
	return time.Duration(launches/c.GCInterval) * c.GCPause
}

// PrepStream draws the per-rank batch-preparation times Simulate feeds each
// rank's data pipeline. The draws come from the geometry-only dataset path:
// the cost model reads nothing but the sample's index, sequence length and
// MSA size, so no protein is folded and no MSA allocated just to be timed.
// Not safe for concurrent use; give each goroutine its own.
type PrepStream struct {
	seed int64
	gs   *dataset.GeomSampler
	pt   *dataset.PrepTimer
}

// NewPrepStream returns the prep-time stream of a simulation seed.
func NewPrepStream(seed int64, m dataset.PrepTimeModel) *PrepStream {
	return &PrepStream{seed: seed, gs: dataset.NewGenerator(seed + 101).Sampler(), pt: m.Timer()}
}

// Fill writes rank r's prep times for one epoch of len(prep) batches. A
// rank's stream depends on nothing but the seed, the model, r and the
// epoch length.
func (p *PrepStream) Fill(prep []time.Duration, r int) {
	for k := range prep {
		idx := r*len(prep) + k
		seqLen, msaSize := p.gs.Geometry(idx)
		prep[k] = p.pt.DurationAt(idx, seqLen, msaSize, p.seed+int64(r))
	}
}
