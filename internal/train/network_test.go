package train

import (
	"math"
	"math/rand"
	"testing"

	ag "repro/internal/autograd"
	"repro/internal/model"
	"repro/internal/tensor"
)

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func tinyConfig() model.Config {
	cfg := model.SmallConfig()
	cfg.MSADepth, cfg.ExtraMSA, cfg.Crop = 4, 2, 8
	cfg.CM, cfg.CME, cfg.CZ, cfg.CS = 8, 4, 4, 8
	cfg.Heads, cfg.COPM, cfg.CTri = 2, 2, 4
	cfg.EvoBlocks, cfg.ExtraBlocks, cfg.TemplateBlocks = 1, 1, 1
	cfg.StructLayers, cfg.Recycles = 1, 1
	return cfg
}

func randFeatures(cfg model.Config, seed int64) *Features {
	f := zeroFeatures(cfg)
	rng := newRng(seed)
	f.MSA.RandUniform(rng, 0, 1)
	f.ExtraMSA.RandUniform(rng, 0, 1)
	f.Target.RandUniform(rng, 0, 1)
	f.Template.RandUniform(rng, 0, 1)
	f.RelPos.RandUniform(rng, 0, 1)
	return f
}

func TestForwardShapes(t *testing.T) {
	cfg := tinyConfig()
	tape := ag.NewTape()
	m := NewModel(cfg, tape, 1)
	out := m.Forward(randFeatures(cfg, 2))
	if got := out.Coords.X.Shape(); got[0] != cfg.Crop || got[1] != 3 {
		t.Fatalf("coords shape %v", got)
	}
	if got := out.MSA.X.Shape(); got[0] != cfg.MSADepth || got[1] != cfg.Crop || got[2] != cfg.CM {
		t.Fatalf("msa shape %v", got)
	}
	if got := out.Pair.X.Shape(); got[0] != cfg.Crop || got[1] != cfg.Crop || got[2] != cfg.CZ {
		t.Fatalf("pair shape %v", got)
	}
	if got := out.Single.X.Shape(); got[0] != cfg.Crop || got[1] != cfg.CS {
		t.Fatalf("single shape %v", got)
	}
}

func TestForwardFiniteOutputs(t *testing.T) {
	cfg := tinyConfig()
	m := NewModel(cfg, ag.NewTape(), 3)
	out := m.Forward(randFeatures(cfg, 4))
	for _, v := range out.Coords.X.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("non-finite coordinate %v", v)
		}
	}
}

func TestParamCountGrowsWithDepth(t *testing.T) {
	a := tinyConfig()
	b := tinyConfig()
	b.EvoBlocks = 3
	ma := NewModel(a, ag.NewTape(), 1)
	mb := NewModel(b, ag.NewTape(), 1)
	if mb.Params.Count() <= ma.Params.Count() {
		t.Fatalf("deeper model must have more params: %d vs %d", mb.Params.Count(), ma.Params.Count())
	}
}

func TestDeterministicForward(t *testing.T) {
	cfg := tinyConfig()
	f := randFeatures(cfg, 7)
	m1 := NewModel(cfg, ag.NewTape(), 42)
	m2 := NewModel(cfg, ag.NewTape(), 42)
	o1 := m1.Forward(f)
	o2 := m2.Forward(f)
	if o1.Coords.X.MaxDiff(o2.Coords.X) != 0 {
		t.Fatal("same seed must give identical outputs")
	}
	m3 := NewModel(cfg, ag.NewTape(), 43)
	if m3.Forward(f).Coords.X.MaxDiff(o1.Coords.X) == 0 {
		t.Fatal("different seed should give different outputs")
	}
}

func TestRecyclingChangesOutput(t *testing.T) {
	cfg := tinyConfig()
	f := randFeatures(cfg, 9)
	cfg1 := cfg
	cfg1.Recycles = 1
	cfg2 := cfg
	cfg2.Recycles = 3
	o1 := NewModel(cfg1, ag.NewTape(), 5).Forward(f)
	o2 := NewModel(cfg2, ag.NewTape(), 5).Forward(f)
	if o1.Coords.X.MaxDiff(o2.Coords.X) == 0 {
		t.Fatal("recycling must change the prediction")
	}
}

func TestBackwardProducesGradsForAllParams(t *testing.T) {
	cfg := tinyConfig()
	tape := ag.NewTape()
	m := NewModel(cfg, tape, 11)
	tape = ag.NewTape()
	m.Params.Rebind(tape)
	out := m.Forward(randFeatures(cfg, 12))
	target := tensor.New(cfg.Crop, 3)
	target.Fill(1)
	loss := ag.MSE(out.Coords, target)
	tape.Backward(loss)
	var withGrad, total int
	for _, p := range m.Params.All() {
		total++
		if p.Grad != nil && p.Grad.Norm() > 0 {
			withGrad++
		}
	}
	// Every parameter on the final-recycle path should receive gradient.
	if withGrad < total*8/10 {
		t.Fatalf("only %d/%d params got gradient", withGrad, total)
	}
}

func TestOneSGDStepReducesLoss(t *testing.T) {
	cfg := tinyConfig()
	tape := ag.NewTape()
	m := NewModel(cfg, tape, 13)
	f := randFeatures(cfg, 14)
	target := tensor.New(cfg.Crop, 3)
	target.RandUniform(newRng(15), -1, 1)

	lossAt := func() float64 {
		tp := ag.NewTape()
		m.Params.Rebind(tp)
		out := m.Forward(f)
		return float64(ag.MSE(out.Coords, target).X.Data[0])
	}

	before := lossAt()
	// One SGD step.
	tp := ag.NewTape()
	m.Params.Rebind(tp)
	out := m.Forward(f)
	loss := ag.MSE(out.Coords, target)
	tp.Backward(loss)
	for _, p := range m.Params.All() {
		if p.Grad != nil {
			p.X.AddScaled(p.Grad, -0.02)
		}
	}
	after := lossAt()
	if after >= before {
		t.Fatalf("SGD step did not reduce loss: %v -> %v", before, after)
	}
}

func TestParamsRebindClearsGrads(t *testing.T) {
	cfg := tinyConfig()
	tape := ag.NewTape()
	m := NewModel(cfg, tape, 17)
	tp := ag.NewTape()
	m.Params.Rebind(tp)
	out := m.Forward(randFeatures(cfg, 18))
	tp.Backward(ag.MeanAll(out.Coords))
	tp2 := ag.NewTape()
	m.Params.Rebind(tp2)
	for _, p := range m.Params.All() {
		if p.Grad != nil {
			t.Fatal("Rebind must clear gradients")
		}
	}
}

func TestParamsRegistryNamesStable(t *testing.T) {
	cfg := tinyConfig()
	m := NewModel(cfg, ag.NewTape(), 19)
	names := m.Params.Names()
	if len(names) == 0 {
		t.Fatal("no parameters registered")
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate parameter name %q", n)
		}
		seen[n] = true
	}
	// A few structural names that must exist.
	for _, want := range []string{"embed.msa.w", "evoformer.0.rowattn.wq.w", "struct.coords.w"} {
		if !seen[want] {
			t.Fatalf("missing parameter %q", want)
		}
	}
}

func TestMismatchedFeatureShapesPanic(t *testing.T) {
	cfg := tinyConfig()
	m := NewModel(cfg, ag.NewTape(), 21)
	f := randFeatures(cfg, 22)
	f.MSA = tensor.New(cfg.MSADepth+1, cfg.Crop, cfg.MSAFeat)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad MSA shape")
		}
	}()
	m.Forward(f)
}
