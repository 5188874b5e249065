package train

import (
	ag "repro/internal/autograd"
)

const lnEps = 1e-5

// layerNorm applies a named LayerNorm over the last dim of x.
func layerNorm(p *Params, name string, x *ag.Value, c int) *ag.Value {
	return ag.LayerNorm(x, p.Gamma(name+".gamma", c), p.Bias(name+".beta", c), lnEps)
}

// linearB applies a named linear layer with bias.
func linearB(p *Params, name string, x *ag.Value, in, out int) *ag.Value {
	return ag.Linear(x, p.Linear(name+".w", in, out), p.Bias(name+".b", out))
}

// linearNB applies a named linear layer without bias.
func linearNB(p *Params, name string, x *ag.Value, in, out int) *ag.Value {
	return ag.Linear(x, p.Linear(name+".w", in, out), nil)
}

// msaRowAttentionWithPairBias is the Figure 6 module: gated multi-head
// self-attention over each MSA row, with an additive bias projected from
// the pair representation. msa is [S,R,CM]; pair is [R,R,CZ].
func msaRowAttentionWithPairBias(p *Params, name string, msa, pair *ag.Value, cm, cz, heads int) *ag.Value {
	m := layerNorm(p, name+".ln", msa, cm)
	z := layerNorm(p, name+".lnz", pair, cz)
	// Pair bias: [R,R,CZ] -> [R,R,H] -> [H,R,R].
	bias := ag.MoveLastToFront(linearNB(p, name+".pairbias", z, cz, heads))
	q := linearNB(p, name+".wq", m, cm, cm)
	k := linearNB(p, name+".wk", m, cm, cm)
	v := linearNB(p, name+".wv", m, cm, cm)
	attn := ag.MHACore(q, k, v, bias, nil, heads)
	gate := ag.Sigmoid(linearB(p, name+".wg", m, cm, cm))
	o := linearB(p, name+".wo", ag.Mul(attn, gate), cm, cm)
	return ag.Add(msa, o)
}

// msaColumnAttention attends along MSA columns (per-residue across
// sequences): transpose, gated MHA without bias, transpose back.
func msaColumnAttention(p *Params, name string, msa *ag.Value, cm, heads int) *ag.Value {
	mt := ag.Transpose01(msa) // [R,S,CM]
	m := layerNorm(p, name+".ln", mt, cm)
	q := linearNB(p, name+".wq", m, cm, cm)
	k := linearNB(p, name+".wk", m, cm, cm)
	v := linearNB(p, name+".wv", m, cm, cm)
	attn := ag.MHACore(q, k, v, nil, nil, heads)
	gate := ag.Sigmoid(linearB(p, name+".wg", m, cm, cm))
	o := linearB(p, name+".wo", ag.Mul(attn, gate), cm, cm)
	return ag.Add(msa, ag.Transpose01(o))
}

// transition is the two-layer ReLU MLP applied to MSA and pair reps.
func transition(p *Params, name string, x *ag.Value, c, factor int) *ag.Value {
	h := layerNorm(p, name+".ln", x, c)
	h = ag.ReLU(linearB(p, name+".fc1", h, c, factor*c))
	h = linearB(p, name+".fc2", h, factor*c, c)
	return ag.Add(x, h)
}

// outerProductMean communicates MSA information into the pair rep.
func outerProductMean(p *Params, name string, msa, pair *ag.Value, cm, copm, cz int) *ag.Value {
	m := layerNorm(p, name+".ln", msa, cm)
	a := linearB(p, name+".proj_a", m, cm, copm)
	b := linearB(p, name+".proj_b", m, cm, copm)
	opm := ag.OuterProductMean(a, b) // [R,R,copm*copm]
	o := linearB(p, name+".out", opm, copm*copm, cz)
	return ag.Add(pair, o)
}

// triangleMultiplication implements the "triangle multiplicative update"
// using outgoing (outgoing=true) or incoming edges.
func triangleMultiplication(p *Params, name string, pair *ag.Value, cz, ct int, outgoing bool) *ag.Value {
	z := layerNorm(p, name+".ln", pair, cz)
	a := ag.Mul(ag.Sigmoid(linearB(p, name+".ga", z, cz, ct)), linearB(p, name+".pa", z, cz, ct))
	b := ag.Mul(ag.Sigmoid(linearB(p, name+".gb", z, cz, ct)), linearB(p, name+".pb", z, cz, ct))
	var t *ag.Value
	if outgoing {
		t = ag.TriMulOutgoing(a, b)
	} else {
		t = ag.TriMulIncoming(a, b)
	}
	t = layerNorm(p, name+".lnout", t, ct)
	o := linearB(p, name+".out", t, ct, cz)
	g := ag.Sigmoid(linearB(p, name+".gout", z, cz, cz))
	return ag.Add(pair, ag.Mul(g, o))
}

// triangleAttention performs gated self-attention over the pair rep rows
// (starting node) or columns (ending node, via transposition), with a bias
// projected from the pair rep itself.
func triangleAttention(p *Params, name string, pair *ag.Value, cz, heads int, starting bool) *ag.Value {
	x := pair
	if !starting {
		x = ag.Transpose01(x)
	}
	z := layerNorm(p, name+".ln", x, cz)
	bias := ag.MoveLastToFront(linearNB(p, name+".bias", z, cz, heads)) // [H,R,R]
	q := linearNB(p, name+".wq", z, cz, cz)
	k := linearNB(p, name+".wk", z, cz, cz)
	v := linearNB(p, name+".wv", z, cz, cz)
	attn := ag.MHACore(q, k, v, bias, nil, heads)
	gate := ag.Sigmoid(linearB(p, name+".wg", z, cz, cz))
	o := linearB(p, name+".wo", ag.Mul(attn, gate), cz, cz)
	if !starting {
		o = ag.Transpose01(o)
	}
	return ag.Add(pair, o)
}

// evoformerBlock applies the nine Figure 2 modules in order and returns the
// updated (msa, pair) pair.
func evoformerBlock(p *Params, name string, msa, pair *ag.Value, cm, cz, heads, copm, ct, factor int) (*ag.Value, *ag.Value) {
	msa = msaRowAttentionWithPairBias(p, name+".rowattn", msa, pair, cm, cz, heads)
	msa = msaColumnAttention(p, name+".colattn", msa, cm, heads)
	msa = transition(p, name+".msatrans", msa, cm, factor)
	pair = outerProductMean(p, name+".opm", msa, pair, cm, copm, cz)
	pair = triangleMultiplication(p, name+".triout", pair, cz, ct, true)
	pair = triangleMultiplication(p, name+".triin", pair, cz, ct, false)
	pair = triangleAttention(p, name+".tristart", pair, cz, heads, true)
	pair = triangleAttention(p, name+".triend", pair, cz, heads, false)
	pair = transition(p, name+".pairtrans", pair, cz, factor)
	return msa, pair
}

// templatePairBlock is the pair-only Evoformer variant used by the template
// pair stack (triangle updates and attention, no MSA track).
func templatePairBlock(p *Params, name string, pair *ag.Value, cz, ct, heads, factor int) *ag.Value {
	pair = triangleMultiplication(p, name+".triout", pair, cz, ct, true)
	pair = triangleMultiplication(p, name+".triin", pair, cz, ct, false)
	pair = triangleAttention(p, name+".tristart", pair, cz, heads, true)
	pair = triangleAttention(p, name+".triend", pair, cz, heads, false)
	pair = transition(p, name+".trans", pair, cz, factor)
	return pair
}
