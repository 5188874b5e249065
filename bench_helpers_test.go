package repro

import (
	"math/rand"

	ag "repro/internal/autograd"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/train"
)

// benchTrainer bundles a miniature model + data for the train-step bench.
type benchTrainer struct {
	tr    *train.Trainer
	batch []*dataset.Sample
}

func newBenchTrainer(cfg model.Config) *benchTrainer {
	mdl := train.NewModel(cfg, ag.NewTape(), 1)
	gen := dataset.NewGenerator(2)
	gen.MSADepth = cfg.MSADepth
	rng := rand.New(rand.NewSource(3))
	batch := []*dataset.Sample{gen.Sample(0).Crop(cfg.Crop, rng)}
	return &benchTrainer{tr: train.New(mdl, train.DefaultConfig()), batch: batch}
}

func (b *benchTrainer) step() { b.tr.TrainStep(b.batch) }
