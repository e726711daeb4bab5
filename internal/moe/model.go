package moe

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Model is a complete MoE transformer language model.
type Model struct {
	Cfg    Config
	Embed  *tensor.Matrix // VocabSize × Dim
	Head   *tensor.Matrix // Dim × VocabSize
	Layers []*Layer
}

// New builds a model with weights initialized from g.
func New(cfg Config, g *tensor.RNG) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Model{
		Cfg:    cfg,
		Embed:  tensor.NewMatrix(cfg.VocabSize, cfg.Dim),
		Head:   tensor.NewMatrix(cfg.Dim, cfg.VocabSize),
		Layers: make([]*Layer, cfg.Layers()),
	}
	m.Embed.RandInit(g, 0.5)
	m.Head.XavierInit(g)
	for l := range m.Layers {
		m.Layers[l] = NewLayer(cfg.Dim, cfg.FFNDim, cfg.ExpertsPerLayer[l], cfg.TopK, g.Split(fmt.Sprintf("layer%d", l)))
	}
	return m, nil
}

// MustNew is New that panics on config error; for tests and fixed configs.
func MustNew(cfg Config, g *tensor.RNG) *Model {
	m, err := New(cfg, g)
	if err != nil {
		panic(err)
	}
	return m
}

// Clone returns a deep copy of the model.
func (m *Model) Clone() *Model {
	c := &Model{
		Cfg:    m.Cfg,
		Embed:  m.Embed.Clone(),
		Head:   m.Head.Clone(),
		Layers: make([]*Layer, len(m.Layers)),
	}
	// Deep-copy ExpertsPerLayer so merged clones can change it independently.
	c.Cfg.ExpertsPerLayer = append([]int(nil), m.Cfg.ExpertsPerLayer...)
	for l, layer := range m.Layers {
		c.Layers[l] = layer.Clone()
	}
	return c
}

// CloneInto deep-copies m into dst, reusing dst's parameter storage when its
// shape matches m exactly and falling back to a fresh Clone otherwise. It
// returns the populated model (dst when reuse succeeded). The worker
// scratches of the federated engine use it so per-round local clones of the
// global model stop allocating once shapes stabilize; dst == nil is allowed
// and behaves like Clone.
func (m *Model) CloneInto(dst *Model) *Model {
	if !m.sameShape(dst) {
		return m.Clone()
	}
	epl := append(dst.Cfg.ExpertsPerLayer[:0], m.Cfg.ExpertsPerLayer...)
	dst.Cfg = m.Cfg
	dst.Cfg.ExpertsPerLayer = epl
	dst.Embed.CopyFrom(m.Embed)
	dst.Head.CopyFrom(m.Head)
	for l, layer := range m.Layers {
		dl := dst.Layers[l]
		dl.Wq.CopyFrom(layer.Wq)
		dl.Wk.CopyFrom(layer.Wk)
		dl.Wv.CopyFrom(layer.Wv)
		dl.Gate.CopyFrom(layer.Gate)
		dl.OrigExperts = layer.OrigExperts
		dl.TopK = layer.TopK
		copy(dl.Routing, layer.Routing)
		for e, src := range layer.Experts {
			de := dl.Experts[e]
			de.W1.CopyFrom(src.W1)
			de.W2.CopyFrom(src.W2)
			copy(de.B1, src.B1)
			copy(de.B2, src.B2)
			de.Frozen = src.Frozen
			de.MergedFrom = append(de.MergedFrom[:0], src.MergedFrom...)
		}
	}
	return dst
}

// sameShape reports whether dst has exactly m's parameter layout, so every
// buffer can be reused by CloneInto.
func (m *Model) sameShape(dst *Model) bool {
	if dst == nil || len(dst.Layers) != len(m.Layers) ||
		dst.Embed.Rows != m.Embed.Rows || dst.Embed.Cols != m.Embed.Cols ||
		dst.Head.Rows != m.Head.Rows || dst.Head.Cols != m.Head.Cols {
		return false
	}
	for l, layer := range m.Layers {
		dl := dst.Layers[l]
		if len(dl.Experts) != len(layer.Experts) || len(dl.Routing) != len(layer.Routing) ||
			dl.Gate.Rows != layer.Gate.Rows || dl.Gate.Cols != layer.Gate.Cols ||
			dl.Wq.Rows != layer.Wq.Rows || dl.Wq.Cols != layer.Wq.Cols {
			return false
		}
		for e, src := range layer.Experts {
			de := dl.Experts[e]
			if de.W1.Rows != src.W1.Rows || de.W1.Cols != src.W1.Cols ||
				de.W2.Rows != src.W2.Rows || de.W2.Cols != src.W2.Cols ||
				len(de.B1) != len(src.B1) || len(de.B2) != len(src.B2) {
				return false
			}
		}
	}
	return true
}

// embedWS writes the token embeddings of seq into the workspace input buffer
// and returns it.
func (m *Model) embedWS(ws *Workspace, seq []int) *tensor.Matrix {
	ws.x = tensor.Grow(ws.x, len(seq), m.Cfg.Dim)
	for t, tok := range seq {
		copy(ws.x.Row(t), m.Embed.Row(tok))
	}
	return ws.x
}

// headLogits applies the final pre-head layer norm (frozen-statistics
// backward) and the output head to rows [from, x.Rows) of the last layer's
// activation x, returning their logits (ws.normed and ws.invStd hold the LN
// state for backward). Training and full-sequence inference pass from == 0;
// decoding passes the first row whose logits it reads.
func (m *Model) headLogits(ws *Workspace, x *tensor.Matrix, from int) *tensor.Matrix {
	T := x.Rows - from
	ws.normed = tensor.Grow(ws.normed, T, m.Cfg.Dim)
	ws.invStd = growFloats(ws.invStd, T)
	for t := 0; t < T; t++ {
		ws.invStd[t] = layerNormRow(ws.normed.Row(t), x.Row(from+t))
	}
	ws.logits = tensor.Grow(ws.logits, T, m.Head.Cols)
	ws.mul.MatMulInto(ws.logits, ws.normed, m.Head)
	return ws.logits
}

// forwardFull runs the whole model on seq with all transient state drawn
// from ws, returning logits, per-layer caches, the pre-head normalized
// hidden states, and their inverse std-devs. Everything returned aliases
// workspace storage.
func (m *Model) forwardFull(ws *Workspace, seq []int, stats *ActivationStats, sampleID int) (*tensor.Matrix, []*layerCache, *tensor.Matrix, []float64) {
	x := m.embedWS(ws, seq)
	caches := ws.cachesFor(len(m.Layers))
	for l, layer := range m.Layers {
		x = layer.Forward(l, x, caches[l], ws, stats, sampleID)
	}
	return m.headLogits(ws, x, 0), caches, ws.normed, ws.invStd
}

// ForwardPrefixWS runs the embedding and layers [0, stop), returning the
// activation entering layer stop. The result aliases storage owned by layer
// stop-1's workspace cache (the embedding buffer when stop == 0), which
// LossSuffixWS calls resuming at start >= stop leave untouched — so one
// prefix can serve many suffix evaluations as long as no parameter below
// stop changes. SPSA probing uses this to re-evaluate the loss after
// perturbing a single expert without recomputing the layers beneath it.
//
//fluxvet:hotpath SPSA probe prefix reuse; runs once per cached prefix inside the assignment search inner loop
func (m *Model) ForwardPrefixWS(ws *Workspace, seq []int, stop int) *tensor.Matrix {
	if ws == nil {
		ws = NewWorkspace()
	}
	x := m.embedWS(ws, seq)
	caches := ws.cachesFor(len(m.Layers))
	for l := 0; l < stop; l++ {
		x = m.Layers[l].Forward(l, x, caches[l], ws, nil, -1)
	}
	return x
}

// LayerInputWS returns the activation that entered layer l in the most
// recent forward pass run on ws (the embedding buffer for l == 0). It stays
// valid across LossSuffixWS calls that resume at start >= l, which is what
// lets a batched SPSA sweep probe several experts off one baseline pass.
func (m *Model) LayerInputWS(ws *Workspace, l int) *tensor.Matrix {
	if l == 0 {
		return ws.x
	}
	return ws.caches[l-1].out
}

// LossSuffixWS resumes a forward pass at layer start from the activation x
// (as produced by ForwardPrefixWS with stop == start on the same workspace)
// and returns the masked mean next-token cross-entropy of seq. The
// composition ForwardPrefixWS + LossSuffixWS is bit-identical to LossWS at
// every split point.
//
//fluxvet:hotpath SPSA probe suffix; runs per probe per sequence in the assignment search inner loop
func (m *Model) LossSuffixWS(ws *Workspace, x *tensor.Matrix, start int, seq []int, mask []bool) float64 {
	caches := ws.cachesFor(len(m.Layers))
	for l := start; l < len(m.Layers); l++ {
		x = m.Layers[l].Forward(l, x, caches[l], ws, nil, -1)
	}
	logits := m.headLogits(ws, x, 0)
	ws.ceProbs = growFloats(ws.ceProbs, logits.Cols)
	loss, _ := crossEntropy(logits, seq, mask, nil, ws.ceProbs)
	return loss
}

// ForwardWS runs inference on seq and returns the T × VocabSize logits, with
// every temporary drawn from ws (nil allocates a private workspace). The
// returned logits alias ws storage and are valid only until ws is next used.
// Routing statistics are recorded into stats when non-nil; sampleID tags the
// sequence for per-expert data-set tracking (pass -1 to skip).
//
//fluxvet:hotpath per-sequence inference; warm workspaces must stay 0 allocs/op (TestForwardBackwardZeroAllocs)
func (m *Model) ForwardWS(ws *Workspace, seq []int, stats *ActivationStats, sampleID int) *tensor.Matrix {
	if ws == nil {
		ws = NewWorkspace()
	}
	logits, _, _, _ := m.forwardFull(ws, seq, stats, sampleID)
	return logits
}

// LossWS computes the mean next-token cross-entropy of seq under the model,
// restricted to positions where mask is true (mask[t] gates the prediction
// made *at* position t for token t+1). A nil mask scores all positions; a nil
// ws allocates a private workspace.
//
//fluxvet:hotpath per-sequence eval loss; runs across the eval subset every round
func (m *Model) LossWS(ws *Workspace, seq []int, mask []bool) float64 {
	if ws == nil {
		ws = NewWorkspace()
	}
	logits := m.ForwardWS(ws, seq, nil, -1)
	ws.ceProbs = growFloats(ws.ceProbs, logits.Cols)
	loss, _ := crossEntropy(logits, seq, mask, nil, ws.ceProbs)
	return loss
}

// ForwardBackwardWS runs a training step's forward and backward passes for
// one sequence, accumulating the trainable experts' gradients into grads,
// and returns the mean masked cross-entropy loss; a nil grads returns the
// loss without a backward pass. Embedding/head gradients are accumulated
// only when grads was created with trainEmbed; without them the backward
// pass stops at the lowest layer holding a trainable expert. Every temporary
// is drawn from ws (nil allocates a private workspace): with a warm workspace
// the whole pass performs zero heap allocations, and results are
// bit-identical whether ws is fresh or reused.
//
//fluxvet:hotpath steady-state training step; warm workspaces must stay 0 allocs/op (TestForwardBackwardZeroAllocs, benchguard)
func (m *Model) ForwardBackwardWS(ws *Workspace, seq []int, mask []bool, grads *Grads, stats *ActivationStats, sampleID int) float64 {
	if ws == nil {
		ws = NewWorkspace()
	}
	logits, caches, normed, invStd := m.forwardFull(ws, seq, stats, sampleID)
	ws.dLogits = tensor.Grow(ws.dLogits, logits.Rows, logits.Cols)
	ws.dLogits.Zero() // masked rows are never written by crossEntropy
	ws.ceProbs = growFloats(ws.ceProbs, logits.Cols)
	loss, n := crossEntropy(logits, seq, mask, ws.dLogits, ws.ceProbs)
	if n == 0 {
		return 0
	}
	if grads == nil {
		return loss
	}

	// Head backward: logits = normed × Head.
	if grads.Head != nil {
		ws.headGrad = tensor.Grow(ws.headGrad, normed.Cols, ws.dLogits.Cols)
		tensor.MatMulTransAInto(ws.headGrad, normed, ws.dLogits)
		grads.Head.Add(ws.headGrad)
	}
	ws.dNormed = tensor.Grow(ws.dNormed, ws.dLogits.Rows, m.Head.Rows)
	tensor.MatMulTransBInto(ws.dNormed, ws.dLogits, m.Head)
	// Final LN backward (exact).
	ws.dX[0] = tensor.Grow(ws.dX[0], ws.dNormed.Rows, ws.dNormed.Cols)
	ws.dX[1] = tensor.Grow(ws.dX[1], ws.dNormed.Rows, ws.dNormed.Cols)
	dX := ws.dX[0]
	dX.Zero() // layerNormBackward accumulates
	for t := 0; t < dX.Rows; t++ {
		layerNormBackward(dX.Row(t), ws.dNormed.Row(t), normed.Row(t), invStd[t])
	}
	// The dL/dx chain ping-pongs between the two workspace matrices: layer
	// l's input gradient becomes layer l-1's output gradient. Only trainable
	// experts and the embedding consume it, so unless the embedding trains
	// the chain ends at the lowest layer holding a trainable expert: that
	// layer gets a nil input gradient and the layers below are not visited.
	trainEmbed := grads.Embed != nil
	stop := 0
	if !trainEmbed {
		stop = m.lowestTrainableLayer()
	}
	buf := 1
	for l := len(m.Layers) - 1; l >= stop; l-- {
		var dNext *tensor.Matrix
		if l > stop || trainEmbed {
			dNext = ws.dX[buf]
		}
		m.Layers[l].Backward(l, caches[l], dX, dNext, ws, grads)
		dX = dNext
		buf = 1 - buf
	}
	// Embedding backward.
	if trainEmbed {
		for t, tok := range seq {
			row := grads.Embed.Row(tok)
			src := dX.Row(t)
			for d := range row {
				row[d] += src[d]
			}
		}
	}
	return loss
}

// lowestTrainableLayer returns the index of the first layer holding a
// non-frozen expert, or len(m.Layers) when every expert is frozen.
func (m *Model) lowestTrainableLayer() int {
	for l, layer := range m.Layers {
		for _, e := range layer.Experts {
			if !e.Frozen {
				return l
			}
		}
	}
	return len(m.Layers)
}

// crossEntropy computes mean next-token cross-entropy over masked positions
// and, if dLogits is non-nil, writes (softmax - onehot)/n into it. probs is
// caller-provided softmax scratch of length logits.Cols.
func crossEntropy(logits *tensor.Matrix, seq []int, mask []bool, dLogits *tensor.Matrix, probs []float64) (float64, int) {
	T := logits.Rows
	var loss float64
	var n int
	for t := 0; t < T-1; t++ {
		if mask != nil && !mask[t] {
			continue
		}
		n++
	}
	if n == 0 {
		return 0, 0
	}
	for t := 0; t < T-1; t++ {
		if mask != nil && !mask[t] {
			continue
		}
		target := seq[t+1]
		tensor.Softmax(probs, logits.Row(t))
		loss += -logProb(probs[target])
		if dLogits != nil {
			drow := dLogits.Row(t)
			inv := 1 / float64(n)
			for j, pv := range probs {
				drow[j] = pv * inv
			}
			drow[target] -= inv
		}
	}
	return loss / float64(n), n
}

// extendWS pushes toks — the tokens at positions [decLen, decLen+len(toks)) of
// the sequence being decoded on ws — through every layer against the cached
// key/value rows, and returns their final-layer activations (len(toks) × Dim,
// aliasing ws). Callers start a sequence with ws.resetDecode and may rewind
// ws.decLen to re-extend from an earlier position: rows at or beyond decLen
// are never read before they are rewritten.
//
//fluxvet:hotpath incremental decode step of per-round evaluation; a warm workspace must stay 0 allocs/op (TestDecodeZeroAllocs)
func (m *Model) extendWS(ws *Workspace, toks []int) *tensor.Matrix {
	x := m.embedWS(ws, toks)
	caches := ws.cachesFor(len(m.Layers))
	for l, layer := range m.Layers {
		x = layer.extend(x, ws.decLen, &ws.kv[l], caches[l], ws)
	}
	ws.decLen += len(toks)
	return x
}

// GenerateWS greedily decodes n tokens following prefix: one prefill of the
// prompt, then one single-row extend per generated token, bit-identical to
// re-running ForwardWS on the growing sequence. A nil ws allocates a private
// workspace. Once the sequence reaches MaxSeqLen the attention window slides
// (the oldest tokens are dropped), which invalidates every cached row above
// layer 0, so each such step re-prefills the truncated window.
func (m *Model) GenerateWS(ws *Workspace, prefix []int, n int) []int {
	if ws == nil {
		ws = NewWorkspace()
	}
	buf := make([]int, len(prefix)+n)
	copy(buf, prefix)
	ws.resetDecode(len(m.Layers), min(len(buf), m.Cfg.MaxSeqLen), m.Cfg.Dim)
	lo := 0 // start of the attention window within buf
	for end := len(prefix); end < len(buf); end++ {
		if end-lo >= m.Cfg.MaxSeqLen {
			lo = end - m.Cfg.MaxSeqLen + 1
			ws.decLen = 0
		}
		x := m.extendWS(ws, buf[lo+ws.decLen:end])
		buf[end] = tensor.ArgMax(m.headLogits(ws, x, x.Rows-1).Row(0))
	}
	return buf[len(prefix):]
}

// ScoreOptionsWS writes into scores[i] the mean log-probability the model
// assigns to opts[i] following prefix — the multiple-choice evaluation
// score. The prompt is run once: each option rewinds the decode state to the
// end of the prompt and extends it by its own tokens (all but the last,
// whose logits nobody reads). An empty option scores -Inf, so it is never
// preferred; with an empty prefix an option's first token is unscored but
// still counts in the mean. A nil ws allocates a private workspace.
//
//fluxvet:hotpath multiple-choice scoring of per-round evaluation; a warm workspace must stay 0 allocs/op (TestDecodeZeroAllocs)
func (m *Model) ScoreOptionsWS(ws *Workspace, prefix []int, opts [][]int, scores []float64) {
	if ws == nil {
		ws = NewWorkspace()
	}
	longest := 0
	for _, opt := range opts {
		longest = max(longest, len(opt))
	}
	ws.resetDecode(len(m.Layers), len(prefix)+longest, m.Cfg.Dim)
	ws.ceProbs = growFloats(ws.ceProbs, m.Head.Cols)
	probs := ws.ceProbs
	if len(prefix) > 0 {
		// The prompt's last row predicts every option's first token.
		x := m.extendWS(ws, prefix)
		tensor.Softmax(probs, m.headLogits(ws, x, x.Rows-1).Row(0))
	}
	// First-token terms are taken now: the option rows below reuse probs.
	for i, opt := range opts {
		scores[i] = 0
		if len(prefix) > 0 && len(opt) > 0 {
			scores[i] = logProb(probs[opt[0]])
		}
	}
	for i, opt := range opts {
		if len(opt) == 0 {
			scores[i] = math.Inf(-1)
			continue
		}
		if len(opt) > 1 {
			ws.decLen = len(prefix)
			logits := m.headLogits(ws, m.extendWS(ws, opt[:len(opt)-1]), 0)
			for j, tok := range opt[1:] {
				tensor.Softmax(probs, logits.Row(j))
				scores[i] += logProb(probs[tok])
			}
		}
		scores[i] /= float64(len(opt))
	}
}

// logProb is log p with p floored at 1e-12, so one impossible token cannot
// make a loss or a score infinite.
func logProb(p float64) float64 {
	if p < 1e-12 {
		p = 1e-12
	}
	return math.Log(p)
}

// OutputEmbedding returns the final-token embedding the model produces for
// seq (the pre-head normalized hidden state). The paper's "output error"
// metrics compare these embeddings between a modified and a reference model
// via cosine distance.
func (m *Model) OutputEmbedding(seq []int) []float64 {
	_, _, normed, _ := m.forwardFull(NewWorkspace(), seq, nil, -1)
	out := make([]float64, m.Cfg.Dim)
	copy(out, normed.Row(normed.Rows-1))
	return out
}

// ApplySGD applies accumulated expert gradients (and embedding/head when
// present) with learning rate lr, then clears grads.
func (m *Model) ApplySGD(grads *Grads, lr float64) {
	for l, layer := range m.Layers {
		for e, eg := range grads.Experts[l] {
			if eg == nil {
				continue
			}
			layer.Experts[e].ApplySGD(eg, lr)
		}
		for e := range grads.TokenGradNorm[l] {
			grads.TokenGradNorm[l][e] = 0
			grads.TokenGradCount[l][e] = 0
		}
	}
	if grads.Embed != nil {
		m.Embed.AddScaled(grads.Embed, -lr)
		m.Head.AddScaled(grads.Head, -lr)
		grads.Embed.Zero()
		grads.Head.Zero()
	}
}

// ExpertAt returns the expert currently serving original index orig in layer
// l, following the routing indirection.
func (m *Model) ExpertAt(l, orig int) *Expert {
	layer := m.Layers[l]
	return layer.Experts[layer.Routing[orig]]
}

// MemoryBytes returns the FP32 in-memory footprint of the current model
// (after any merging), counting expert, gate, attention, and embedding
// parameters at 4 bytes each.
func (m *Model) MemoryBytes() int64 {
	var params int64
	params += int64(m.Embed.Rows*m.Embed.Cols + m.Head.Rows*m.Head.Cols)
	for _, layer := range m.Layers {
		params += int64(3 * m.Cfg.Dim * m.Cfg.Dim)
		params += int64(layer.Gate.Rows * layer.Gate.Cols)
		for _, e := range layer.Experts {
			params += int64(e.Params())
		}
	}
	return params * 4
}
