package train

import (
	"fmt"

	ag "repro/internal/autograd"
	"repro/internal/model"
	"repro/internal/tensor"
)

// Features are the featurized inputs of one training sample (Featurize
// produces them from a synthetic protein).
type Features struct {
	MSA      *tensor.Tensor // [S, R, MSAFeat]
	ExtraMSA *tensor.Tensor // [S_e, R, MSAFeat]
	Target   *tensor.Tensor // [R, TargetFeat]
	Template *tensor.Tensor // [R, R, TemplFeat]
	RelPos   *tensor.Tensor // [R, R, RelPosBins]
}

// Output is the model's prediction plus the representations that feed the
// next recycling iteration.
type Output struct {
	Coords *ag.Value // [R, 3] predicted Cα coordinates
	MSA    *ag.Value // [S, R, CM] final MSA representation
	Pair   *ag.Value // [R, R, CZ] final pair representation
	Single *ag.Value // [R, CS] final single representation
}

// Model is the miniature AlphaFold: Figure 1's four parts (data loading
// lives in package dataset) plus recycling.
type Model struct {
	Cfg    model.Config
	Params *Params
}

// NewModel constructs a model with freshly initialized parameters bound to
// tape.
func NewModel(cfg model.Config, tape *ag.Tape, seed int64) *Model {
	m := &Model{Cfg: cfg, Params: newParams(tape, seed)}
	// Touch every parameter once so Params.Count and the optimizer see the
	// full set before the first forward pass.
	m.buildParams()
	return m
}

// buildParams runs a forward pass on zero inputs purely to register every
// parameter. The activations are discarded.
func (m *Model) buildParams() {
	f := zeroFeatures(m.Cfg)
	m.Forward(f)
	tape := m.Params.Tape()
	tape.Reset()
	m.Params.Rebind(tape)
}

func zeroFeatures(cfg model.Config) *Features {
	return &Features{
		MSA:      tensor.New(cfg.MSADepth, cfg.Crop, cfg.MSAFeat),
		ExtraMSA: tensor.New(cfg.ExtraMSA, cfg.Crop, cfg.MSAFeat),
		Target:   tensor.New(cfg.Crop, cfg.TargetFeat),
		Template: tensor.New(cfg.Crop, cfg.Crop, cfg.TemplFeat),
		RelPos:   tensor.New(cfg.Crop, cfg.Crop, cfg.RelPosBins),
	}
}

// Forward runs the whole model with recycling and returns the final
// iteration's outputs. Gradients flow only through the last recycling
// iteration, as in AlphaFold: earlier iterations are detached.
func (m *Model) Forward(f *Features) *Output {
	cfg := m.Cfg
	var prevMSA1, prevPair *tensor.Tensor
	var out *Output
	iters := cfg.Recycles
	if iters < 1 {
		iters = 1
	}
	for it := 0; it < iters; it++ {
		out = m.iteration(f, prevMSA1, prevPair)
		if it < iters-1 {
			// Detach: next iteration sees values, not graph.
			prevMSA1 = out.MSA.X.Clone() // full MSA rep; iteration() slices row 0
			prevPair = out.Pair.X.Clone()
		}
	}
	return out
}

// iteration runs one recycling iteration.
func (m *Model) iteration(f *Features, prevMSA1, prevPair *tensor.Tensor) *Output {
	cfg := m.Cfg
	p := m.Params
	tp := p.Tape()

	if got, want := f.MSA.Shape(), []int{cfg.MSADepth, cfg.Crop, cfg.MSAFeat}; !shapeEq(got, want) {
		panic(fmt.Sprintf("train: MSA features %v, want %v", got, want))
	}

	// --- Input embedding (Figure 1 "Input Embedding") ---
	msaFeat := tp.Input(f.MSA)
	targetFeat := tp.Input(f.Target)
	msa := linearB(p, "embed.msa", msaFeat, cfg.MSAFeat, cfg.CM)
	tgt := linearB(p, "embed.target_m", targetFeat, cfg.TargetFeat, cfg.CM)
	msa = ag.AddRowBroadcast(msa, tgt)

	left := linearB(p, "embed.left", targetFeat, cfg.TargetFeat, cfg.CZ)
	right := linearB(p, "embed.right", targetFeat, cfg.TargetFeat, cfg.CZ)
	pair := ag.PairOuterSum(left, right)
	relpos := linearNB(p, "embed.relpos", tp.Input(f.RelPos), cfg.RelPosBins, cfg.CZ)
	pair = ag.Add(pair, relpos)

	// --- Recycling embedder ---
	if prevPair != nil {
		rp := layerNorm(p, "recycle.pair_ln", tp.Input(prevPair), cfg.CZ)
		pair = ag.Add(pair, linearB(p, "recycle.pair", rp, cfg.CZ, cfg.CZ))
	}
	if prevMSA1 != nil {
		// First row of the previous MSA representation, detached.
		row0 := tensor.FromSlice(append([]float32(nil), prevMSA1.Data[:cfg.Crop*cfg.CM]...), cfg.Crop, cfg.CM)
		rm := layerNorm(p, "recycle.msa_ln", tp.Input(row0), cfg.CM)
		msa = ag.AddRowBroadcast(msa, linearB(p, "recycle.msa", rm, cfg.CM, cfg.CM))
	}

	// --- Template pair stack (2 pair-only Evoformer blocks in AlphaFold) ---
	tmpl := linearB(p, "template.embed", tp.Input(f.Template), cfg.TemplFeat, cfg.CZ)
	for b := 0; b < cfg.TemplateBlocks; b++ {
		tmpl = templatePairBlock(p, fmt.Sprintf("template.%d", b), tmpl, cfg.CZ, cfg.CTri, cfg.Heads, cfg.Transition)
	}
	pair = ag.Add(pair, layerNorm(p, "template.ln", tmpl, cfg.CZ))

	// --- Extra MSA stack (4 Evoformer blocks at reduced width) ---
	emsa := linearB(p, "extramsa.embed", tp.Input(f.ExtraMSA), cfg.MSAFeat, cfg.CME)
	for b := 0; b < cfg.ExtraBlocks; b++ {
		name := fmt.Sprintf("extramsa.%d", b)
		// The extra-MSA stack shares the pair representation; its per-block
		// updates flow into pair exactly like the main stack's.
		emsa, pair = evoformerBlock(p, name, emsa, pair, cfg.CME, cfg.CZ, cfg.Heads, cfg.COPM, cfg.CTri, cfg.Transition)
	}

	// --- Evoformer stack (48 blocks in AlphaFold) ---
	for b := 0; b < cfg.EvoBlocks; b++ {
		msa, pair = evoformerBlock(p, fmt.Sprintf("evoformer.%d", b), msa, pair, cfg.CM, cfg.CZ, cfg.Heads, cfg.COPM, cfg.CTri, cfg.Transition)
	}

	// --- Structure module ---
	single := linearB(p, "struct.single_in", ag.TakeRow0(msa), cfg.CM, cfg.CS)
	zln := layerNorm(p, "struct.pair_ln", pair, cfg.CZ)
	for l := 0; l < cfg.StructLayers; l++ {
		name := fmt.Sprintf("struct.%d", l)
		s := layerNorm(p, name+".ln", single, cfg.CS)
		bias := ag.MoveLastToFront(linearNB(p, name+".pairbias", zln, cfg.CZ, cfg.Heads))
		s3 := ag.Reshape(s, 1, cfg.Crop, cfg.CS)
		q := linearNB(p, name+".wq", s3, cfg.CS, cfg.CS)
		k := linearNB(p, name+".wk", s3, cfg.CS, cfg.CS)
		v := linearNB(p, name+".wv", s3, cfg.CS, cfg.CS)
		attn := ag.Reshape(ag.MHACore(q, k, v, bias, nil, cfg.Heads), cfg.Crop, cfg.CS)
		single = ag.Add(single, linearB(p, name+".wo", attn, cfg.CS, cfg.CS))
		single = transition(p, name+".trans", single, cfg.CS, cfg.Transition)
	}
	coords := linearB(p, "struct.coords", layerNorm(p, "struct.out_ln", single, cfg.CS), cfg.CS, 3)

	return &Output{Coords: coords, MSA: msa, Pair: pair, Single: single}
}

func shapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
