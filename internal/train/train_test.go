package train

import (
	"math"
	"math/rand"
	"testing"

	ag "repro/internal/autograd"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/tensor"
)

func tinyModel(seed int64) *Model {
	cfg := model.SmallConfig()
	cfg.MSADepth, cfg.ExtraMSA, cfg.Crop = 4, 2, 10
	cfg.CM, cfg.CME, cfg.CZ, cfg.CS = 8, 4, 4, 8
	cfg.Heads, cfg.COPM, cfg.CTri = 2, 2, 4
	cfg.EvoBlocks, cfg.ExtraBlocks, cfg.TemplateBlocks = 1, 1, 1
	cfg.StructLayers, cfg.Recycles = 1, 1
	return NewModel(cfg, ag.NewTape(), seed)
}

func cropBatch(t *testing.T, gen *dataset.Generator, cfg model.Config, idxs []int, seed int64) []*dataset.Sample {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]*dataset.Sample, len(idxs))
	for i, idx := range idxs {
		out[i] = gen.Sample(idx).Crop(cfg.Crop, rng)
	}
	return out
}

func TestTrainStepReducesLoss(t *testing.T) {
	mdl := tinyModel(1)
	tr := New(mdl, DefaultConfig())
	gen := dataset.NewGenerator(2)
	gen.MSADepth = mdl.Cfg.MSADepth
	batch := cropBatch(t, gen, mdl.Cfg, []int{0, 1}, 3)

	first := tr.TrainStep(batch)
	var last float64
	for i := 0; i < 15; i++ {
		last = tr.TrainStep(batch)
	}
	if !(last < first) {
		t.Fatalf("loss did not decrease: first %v last %v", first, last)
	}
	if tr.Step() != 16 {
		t.Fatalf("step count %d", tr.Step())
	}
}

func TestTrainingImprovesLDDT(t *testing.T) {
	mdl := tinyModel(4)
	cfg := DefaultConfig()
	cfg.LR = 4e-3
	tr := New(mdl, cfg)
	gen := dataset.NewGenerator(5)
	gen.MSADepth = mdl.Cfg.MSADepth
	batch := cropBatch(t, gen, mdl.Cfg, []int{0}, 6)

	before := tr.Evaluate(batch)
	for i := 0; i < 30; i++ {
		tr.TrainStep(batch)
	}
	after := tr.Evaluate(batch)
	if !(after > before) {
		t.Fatalf("lDDT did not improve: %v -> %v", before, after)
	}
}

func TestBF16TrainingStaysFinite(t *testing.T) {
	mdl := tinyModel(7)
	cfg := DefaultConfig()
	cfg.BF16 = true
	tr := New(mdl, cfg)
	gen := dataset.NewGenerator(8)
	gen.MSADepth = mdl.Cfg.MSADepth
	batch := cropBatch(t, gen, mdl.Cfg, []int{0, 1}, 9)
	var loss float64
	for i := 0; i < 5; i++ {
		loss = tr.TrainStep(batch)
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			t.Fatalf("bf16 training diverged at step %d: %v", i, loss)
		}
	}
	// Parameters must be bf16 fixed points.
	for _, p := range mdl.Params.All() {
		for _, v := range p.X.Data[:min(8, p.X.Len())] {
			if tensor.RoundBF16(v) != v {
				t.Fatalf("parameter %v not on the bf16 grid", v)
			}
		}
	}
}

func TestLDDTPerfectPrediction(t *testing.T) {
	coords := dataset.FoldSequence([]int{1, 2, 3, 4, 5, 6, 7, 8})
	if got := LDDTCa(coords, coords); got != 1 {
		t.Fatalf("perfect prediction lDDT = %v, want 1", got)
	}
}

func TestLDDTDegradesWithNoise(t *testing.T) {
	truth := dataset.FoldSequence([]int{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8})
	rng := rand.New(rand.NewSource(10))
	perturb := func(scale float32) [][3]float32 {
		out := make([][3]float32, len(truth))
		for i := range truth {
			for d := 0; d < 3; d++ {
				out[i][d] = truth[i][d] + float32(rng.NormFloat64())*scale
			}
		}
		return out
	}
	small := LDDTCa(perturb(0.1), truth)
	large := LDDTCa(perturb(8), truth)
	if !(small > large) {
		t.Fatalf("lDDT should degrade with noise: small %v large %v", small, large)
	}
	if small < 0.8 {
		t.Fatalf("0.1 Å noise should keep lDDT high, got %v", small)
	}
	if large > 0.6 {
		t.Fatalf("8 Å noise should wreck lDDT, got %v", large)
	}
}

func TestLDDTRangeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(12)
		a := make([][3]float32, n)
		b := make([][3]float32, n)
		for i := 0; i < n; i++ {
			for d := 0; d < 3; d++ {
				a[i][d] = float32(rng.NormFloat64() * 5)
				b[i][d] = float32(rng.NormFloat64() * 5)
			}
		}
		v := LDDTCa(a, b)
		if v < 0 || v > 1 {
			t.Fatalf("lDDT %v out of [0,1]", v)
		}
	}
}

func TestLDDTMismatchedLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LDDTCa(make([][3]float32, 3), make([][3]float32, 4))
}

func TestEmptyBatchPanics(t *testing.T) {
	tr := New(tinyModel(12), DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.TrainStep(nil)
}

func TestOptimizerUsesFusedKernel(t *testing.T) {
	mdl := tinyModel(13)
	tr := New(mdl, DefaultConfig())
	gen := dataset.NewGenerator(14)
	gen.MSADepth = mdl.Cfg.MSADepth
	batch := cropBatch(t, gen, mdl.Cfg, []int{0}, 15)
	tr.TrainStep(batch)
	// The fused optimizer launches O(1) kernels per step (norm buckets +
	// fused update), not O(#tensors).
	nTensors := len(mdl.Params.All())
	if tr.KernelStats.Launches >= nTensors {
		t.Fatalf("optimizer launched %d kernels for %d tensors — not fused", tr.KernelStats.Launches, nTensors)
	}
}

func TestSWATracksParameters(t *testing.T) {
	mdl := tinyModel(16)
	cfg := DefaultConfig()
	cfg.SWADecay = 0.5
	tr := New(mdl, cfg)
	gen := dataset.NewGenerator(17)
	gen.MSADepth = mdl.Cfg.MSADepth
	batch := cropBatch(t, gen, mdl.Cfg, []int{0}, 18)
	for i := 0; i < 5; i++ {
		tr.TrainStep(batch)
	}
	// SWA must differ from both its init and the current weights (it lags).
	ps := mdl.Params.All()
	var lag bool
	for i, p := range ps {
		for j := range tr.swa[i] {
			if tr.swa[i][j] != p.X.Data[j] {
				lag = true
				break
			}
		}
		if lag {
			break
		}
	}
	if !lag {
		t.Fatal("SWA should lag behind current parameters")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
