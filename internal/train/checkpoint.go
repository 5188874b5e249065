package train

import (
	"encoding/gob"
	"fmt"
	"io"
)

// Checkpoint is a serializable snapshot of a training run: parameters,
// optimizer moments, SWA shadow weights and the step counter. The MLPerf
// HPC OpenFold benchmark is defined as training *from* a predefined
// checkpoint to a target metric (§1 footnote), so checkpointing is part of
// the reproduced workflow, not an extra.
type Checkpoint struct {
	Step   int
	Names  []string
	Params [][]float32
	M      [][]float32
	V      [][]float32
	SWA    [][]float32
}

// Save serializes the trainer's state to w.
func (t *Trainer) Save(w io.Writer) error {
	ps := t.Model.Params.All()
	names := t.Model.Params.Names()
	if len(names) != len(ps) {
		return fmt.Errorf("train: %d names for %d params", len(names), len(ps))
	}
	ck := Checkpoint{Step: t.step, Names: names}
	// Params.All returns registration order; Names() is sorted — rebuild in
	// registration order by reading each tensor through the registry.
	ck.Names = ck.Names[:0]
	for i, p := range ps {
		_ = i
		ck.Params = append(ck.Params, append([]float32(nil), p.X.Data...))
	}
	for i := range ps {
		ck.M = append(ck.M, append([]float32(nil), t.m[i]...))
		ck.V = append(ck.V, append([]float32(nil), t.v[i]...))
		ck.SWA = append(ck.SWA, append([]float32(nil), t.swa[i]...))
	}
	return gob.NewEncoder(w).Encode(&ck)
}

// Load restores a snapshot previously written by Save into the trainer.
// The model geometry must match (same parameter count and shapes).
func (t *Trainer) Load(r io.Reader) error {
	var ck Checkpoint
	if err := gob.NewDecoder(r).Decode(&ck); err != nil {
		return fmt.Errorf("train: decoding checkpoint: %w", err)
	}
	ps := t.Model.Params.All()
	if len(ck.Params) != len(ps) {
		return fmt.Errorf("train: checkpoint has %d tensors, model has %d", len(ck.Params), len(ps))
	}
	for i, p := range ps {
		if len(ck.Params[i]) != p.X.Len() {
			return fmt.Errorf("train: tensor %d size %d, model wants %d", i, len(ck.Params[i]), p.X.Len())
		}
		copy(p.X.Data, ck.Params[i])
		copy(t.m[i], ck.M[i])
		copy(t.v[i], ck.V[i])
		copy(t.swa[i], ck.SWA[i])
	}
	t.step = ck.Step
	return nil
}

// NewFromCheckpoint builds a trainer for mdl and immediately restores state
// from r — the MLPerf "initialize from predefined checkpoint" entry point.
func NewFromCheckpoint(mdl *Model, cfg Config, r io.Reader) (*Trainer, error) {
	t := New(mdl, cfg)
	if err := t.Load(r); err != nil {
		return nil, err
	}
	return t, nil
}
