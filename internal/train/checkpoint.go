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

// Save serializes the trainer's state to w. Names lists the parameters in
// registration order, the order of Params.All and of every tensor list.
func (t *Trainer) Save(w io.Writer) error {
	ps := t.Model.Params.All()
	ck := Checkpoint{Step: t.step, Names: append([]string(nil), t.Model.Params.names...)}
	for i, p := range ps {
		ck.Params = append(ck.Params, append([]float32(nil), p.X.Data...))
		ck.M = append(ck.M, append([]float32(nil), t.m[i]...))
		ck.V = append(ck.V, append([]float32(nil), t.v[i]...))
		ck.SWA = append(ck.SWA, append([]float32(nil), t.swa[i]...))
	}
	return gob.NewEncoder(w).Encode(&ck)
}

// Load restores a snapshot previously written by Save into the trainer.
// The model must register the same parameters, by name, in the same order
// and with the same sizes.
func (t *Trainer) Load(r io.Reader) error {
	var ck Checkpoint
	if err := gob.NewDecoder(r).Decode(&ck); err != nil {
		return fmt.Errorf("train: decoding checkpoint: %w", err)
	}
	ps := t.Model.Params.All()
	if len(ck.Params) != len(ps) || len(ck.Names) != len(ps) {
		return fmt.Errorf("train: checkpoint has %d tensors (%d names), model has %d",
			len(ck.Params), len(ck.Names), len(ps))
	}
	for i, name := range t.Model.Params.names {
		if ck.Names[i] != name {
			return fmt.Errorf("train: checkpoint tensor %d is %q, model wants %q", i, ck.Names[i], name)
		}
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
