package train

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/model"
)

func TestFeaturizeShapes(t *testing.T) {
	cfg := model.SmallConfig()
	g := dataset.NewGenerator(5)
	g.MSADepth = cfg.MSADepth
	rng := rand.New(rand.NewSource(2))
	s := g.Sample(0).Crop(cfg.Crop, rng)
	f := Featurize(s, cfg, rng)
	checks := [][2]interface{}{
		{f.MSA.Shape(), []int{cfg.MSADepth, cfg.Crop, cfg.MSAFeat}},
		{f.ExtraMSA.Shape(), []int{cfg.ExtraMSA, cfg.Crop, cfg.MSAFeat}},
		{f.Target.Shape(), []int{cfg.Crop, cfg.TargetFeat}},
		{f.Template.Shape(), []int{cfg.Crop, cfg.Crop, cfg.TemplFeat}},
		{f.RelPos.Shape(), []int{cfg.Crop, cfg.Crop, cfg.RelPosBins}},
	}
	for i, c := range checks {
		got := c[0].([]int)
		want := c[1].([]int)
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("feature %d shape %v want %v", i, got, want)
			}
		}
	}
}

func TestFeaturizeOneHotRows(t *testing.T) {
	cfg := model.SmallConfig()
	g := dataset.NewGenerator(6)
	g.MSADepth = cfg.MSADepth
	rng := rand.New(rand.NewSource(3))
	s := g.Sample(1).Crop(cfg.Crop, rng)
	f := Featurize(s, cfg, rng)
	// Target rows are one-hot.
	for i := 0; i < cfg.Crop; i++ {
		var sum float32
		for j := 0; j < cfg.TargetFeat; j++ {
			sum += f.Target.At(i, j)
		}
		if sum != 1 {
			t.Fatalf("target row %d sums to %v", i, sum)
		}
	}
	// RelPos rows are one-hot.
	for i := 0; i < cfg.Crop; i++ {
		for j := 0; j < cfg.Crop; j++ {
			var sum float32
			for b := 0; b < cfg.RelPosBins; b++ {
				sum += f.RelPos.At(i, j, b)
			}
			if sum != 1 {
				t.Fatalf("relpos (%d,%d) sums to %v", i, j, sum)
			}
		}
	}
}

func TestTrueDistancesSymmetricZeroDiagonal(t *testing.T) {
	g := dataset.NewGenerator(7)
	rng := rand.New(rand.NewSource(4))
	s := g.Sample(2).Crop(12, rng)
	d := TrueDistances(s)
	for i := 0; i < 12; i++ {
		if d.At(i, i) != 0 {
			t.Fatal("diagonal must be zero")
		}
		for j := 0; j < 12; j++ {
			if math.Abs(float64(d.At(i, j)-d.At(j, i))) > 1e-5 {
				t.Fatal("distance matrix must be symmetric")
			}
		}
	}
}
