package train

import (
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/tensor"
)

// Featurize converts a cropped sample into the model's input tensors under
// the given geometry. The MSA feature is a one-hot residue encoding plus a
// "differs from target" flag and a normalized column position; the target
// feature is the one-hot sequence; the template feature encodes a coarse
// distance matrix of a noisy copy of the true structure (standing in for
// real template hits); relpos is the clipped relative-position one-hot.
func Featurize(s *dataset.Sample, cfg model.Config, rng *rand.Rand) *Features {
	r := cfg.Crop
	if len(s.Seq) != r {
		panic("train: Featurize requires a sample cropped to cfg.Crop")
	}

	msa := tensor.New(cfg.MSADepth, r, cfg.MSAFeat)
	for row := 0; row < cfg.MSADepth; row++ {
		src := s.MSA[row%len(s.MSA)]
		for i := 0; i < r; i++ {
			base := (row*r + i) * cfg.MSAFeat
			aa := src[i]
			if aa < cfg.MSAFeat-2 {
				msa.Data[base+aa] = 1
			}
			if src[i] != s.Seq[i] {
				msa.Data[base+cfg.MSAFeat-2] = 1
			}
			msa.Data[base+cfg.MSAFeat-1] = float32(i) / float32(r)
		}
	}

	extra := tensor.New(cfg.ExtraMSA, r, cfg.MSAFeat)
	for row := 0; row < cfg.ExtraMSA; row++ {
		src := s.MSA[(row+1)%len(s.MSA)]
		for i := 0; i < r; i++ {
			base := (row*r + i) * cfg.MSAFeat
			aa := src[i]
			if aa < cfg.MSAFeat-2 {
				extra.Data[base+aa] = 1
			}
		}
	}

	target := tensor.New(r, cfg.TargetFeat)
	for i := 0; i < r; i++ {
		aa := s.Seq[i]
		if aa < cfg.TargetFeat {
			target.Data[i*cfg.TargetFeat+aa] = 1
		}
	}

	// Template: binned distances of a perturbed copy of the truth. Real
	// AlphaFold templates are homologous structures; noise keeps the model
	// from reading the answer directly off the template.
	tmpl := tensor.New(r, r, cfg.TemplFeat)
	noisy := make([][3]float32, r)
	for i := range noisy {
		for d := 0; d < 3; d++ {
			noisy[i][d] = s.Coords[i][d] + float32(rng.NormFloat64()*3.0)
		}
	}
	for i := 0; i < r; i++ {
		for j := 0; j < r; j++ {
			d := float32(dist3(noisy[i], noisy[j]))
			bin := int(d / 4.0)
			if bin >= cfg.TemplFeat {
				bin = cfg.TemplFeat - 1
			}
			tmpl.Data[(i*r+j)*cfg.TemplFeat+bin] = 1
		}
	}

	relpos := tensor.New(r, r, cfg.RelPosBins)
	half := cfg.RelPosBins / 2
	for i := 0; i < r; i++ {
		for j := 0; j < r; j++ {
			d := j - i
			if d < -half {
				d = -half
			}
			if d > half {
				d = half
			}
			relpos.Data[(i*r+j)*cfg.RelPosBins+(d+half)] = 1
		}
	}

	return &Features{MSA: msa, ExtraMSA: extra, Target: target, Template: tmpl, RelPos: relpos}
}

// TrueDistances returns the pairwise Cα distance matrix of the sample's
// ground-truth structure as an [R,R] tensor. The trainer's loss compares
// predicted and true distance matrices (rotation/translation invariant).
func TrueDistances(s *dataset.Sample) *tensor.Tensor {
	r := len(s.Coords)
	out := tensor.New(r, r)
	for i := 0; i < r; i++ {
		for j := 0; j < r; j++ {
			out.Data[i*r+j] = float32(dist3(s.Coords[i], s.Coords[j]))
		}
	}
	return out
}
