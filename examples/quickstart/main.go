// Quickstart: train the miniature AlphaFold model on synthetic folds and
// watch avg_lddt_ca — the paper's convergence metric — rise, then reproduce
// the headline step-time result on the simulated H100 cluster.
package main

import (
	"fmt"
	"math/rand"

	ag "repro/internal/autograd"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/scalefold"
	"repro/internal/train"
)

func main() {
	fmt.Println("== Part 1: real training of the miniature AlphaFold ==")
	cfg := model.SmallConfig()
	cfg.Crop = 12
	cfg.EvoBlocks = 2
	mdl := train.NewModel(cfg, ag.NewTape(), 42)
	fmt.Printf("model: %d parameters across %d tensors (full AlphaFold: 97M)\n",
		mdl.Params.Count(), len(mdl.Params.All()))

	gen := dataset.NewGenerator(7)
	gen.MSADepth = cfg.MSADepth
	rng := rand.New(rand.NewSource(1))
	var batch []*dataset.Sample
	for i := 0; i < 2; i++ {
		batch = append(batch, gen.Sample(i).Crop(cfg.Crop, rng))
	}

	tr := train.New(mdl, train.DefaultConfig())
	fmt.Printf("initial avg_lddt_ca: %.3f\n", tr.Evaluate(batch))
	for step := 1; step <= 40; step++ {
		loss := tr.TrainStep(batch)
		if step%10 == 0 {
			fmt.Printf("step %3d  loss %.4f  avg_lddt_ca %.3f\n", step, loss, tr.Evaluate(batch))
		}
	}

	fmt.Println()
	fmt.Println("== Part 2: ScaleFold step time on the simulated cluster ==")
	ref := scalefold.ReferenceConfig("A100", 128)
	sf := scalefold.Figure7Config("H100", 1024, 8)
	refS, sfS := ref.StepSeconds(), sf.StepSeconds()
	fmt.Printf("OpenFold reference (A100x128): %.2f s/step (paper: 6.19 s)\n", refS)
	fmt.Printf("ScaleFold (H100x1024, DAP-8):  %.2f s/step (paper: 0.65 s)\n", sfS)
	fmt.Printf("end-to-end step speedup: %.1fx\n", refS/sfS)
}
