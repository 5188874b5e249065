package train

import (
	"bytes"
	"strings"
	"testing"

	ag "repro/internal/autograd"
	"repro/internal/dataset"
	"repro/internal/model"
)

func freshModel(cfg model.Config, seed int64) *Model {
	return NewModel(cfg, ag.NewTape(), seed)
}

func TestCheckpointRoundTrip(t *testing.T) {
	mdl := tinyModel(31)
	tr := New(mdl, DefaultConfig())
	gen := dataset.NewGenerator(32)
	gen.MSADepth = mdl.Cfg.MSADepth
	batch := cropBatch(t, gen, mdl.Cfg, []int{0, 1}, 33)
	for i := 0; i < 4; i++ {
		tr.TrainStep(batch)
	}
	lossBefore := tr.TrainStep(batch)

	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}

	// Restore into a fresh model with different init.
	mdl2 := tinyModel(99)
	tr2, err := NewFromCheckpoint(mdl2, DefaultConfig(), bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Step() != tr.Step() {
		t.Fatalf("step %d, want %d", tr2.Step(), tr.Step())
	}
	// Continuing training must behave identically: compare the next loss on
	// the same batch (determinism established elsewhere).
	lossResumed := tr2.TrainStep(batch)
	lossContinued := tr.TrainStep(batch)
	if lossResumed != lossContinued {
		t.Fatalf("resumed training diverged: %v vs %v", lossResumed, lossContinued)
	}
	_ = lossBefore
}

func TestCheckpointGeometryMismatch(t *testing.T) {
	tr := New(tinyModel(34), DefaultConfig())
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// A model with a different depth has a different tensor count.
	other := tinyModel(35)
	cfg := other.Cfg
	cfg.EvoBlocks = 2
	bigger := New(freshModel(cfg, 36), DefaultConfig())
	if err := bigger.Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("mismatched geometry must fail to load")
	}
}

func TestCheckpointCorruptData(t *testing.T) {
	tr := New(tinyModel(37), DefaultConfig())
	if err := tr.Load(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Fatal("garbage must not load")
	}
}

// TestCheckpointRefusesReorderedParams: two models register equal-size
// tensors in swapped order, so count and sizes agree; the names must not.
func TestCheckpointRefusesReorderedParams(t *testing.T) {
	build := func(names ...string) *Trainer {
		mdl := &Model{Params: newParams(ag.NewTape(), 38)}
		for _, n := range names {
			mdl.Params.Bias(n, 4)
		}
		return New(mdl, DefaultConfig())
	}
	var buf bytes.Buffer
	if err := build("a", "b").Save(&buf); err != nil {
		t.Fatal(err)
	}
	err := build("b", "a").Load(bytes.NewReader(buf.Bytes()))
	if err == nil {
		t.Fatal("a checkpoint with reordered parameter names loaded")
	}
	if !strings.Contains(err.Error(), `"a"`) || !strings.Contains(err.Error(), `"b"`) {
		t.Fatalf("error %q does not name the first mismatch", err)
	}
}
