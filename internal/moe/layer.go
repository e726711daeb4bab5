package moe

import (
	"math"

	"repro/internal/tensor"
)

// Layer is one transformer block: pre-norm single-head self-attention with a
// residual connection, followed by a pre-norm MoE feed-forward block with a
// residual connection.
//
// Routing indirection: the gate always produces one logit per *original*
// expert index (OrigExperts wide). Routing maps an original index to the
// position of the expert that now serves it in Experts. Before any merging
// the map is the identity; after merging several original indices point at
// the same merged expert. This implements the paper's "gate re-routing"
// without retraining the gate.
type Layer struct {
	Wq, Wk, Wv *tensor.Matrix // Dim × Dim attention projections (frozen)
	Gate       *tensor.Matrix // Dim × OrigExperts router logits (frozen after pre-training)

	OrigExperts int
	Routing     []int // original expert index -> index into Experts
	Experts     []*Expert

	TopK int
}

// NewLayer builds a layer with experts freshly initialized from g.
func NewLayer(dim, ffn, experts, topK int, g *tensor.RNG) *Layer {
	l := &Layer{
		Wq:          tensor.NewMatrix(dim, dim),
		Wk:          tensor.NewMatrix(dim, dim),
		Wv:          tensor.NewMatrix(dim, dim),
		Gate:        tensor.NewMatrix(dim, experts),
		OrigExperts: experts,
		Routing:     make([]int, experts),
		Experts:     make([]*Expert, experts),
		TopK:        topK,
	}
	l.Wq.XavierInit(g)
	l.Wk.XavierInit(g)
	l.Wv.XavierInit(g)
	l.Gate.RandInit(g, 1.0/math.Sqrt(float64(dim)))
	for e := range l.Experts {
		l.Experts[e] = NewExpert(dim, ffn, g.Split("expert"))
		l.Routing[e] = e
	}
	return l
}

// Clone returns a deep copy of the layer.
func (l *Layer) Clone() *Layer {
	c := &Layer{
		Wq:          l.Wq.Clone(),
		Wk:          l.Wk.Clone(),
		Wv:          l.Wv.Clone(),
		Gate:        l.Gate.Clone(),
		OrigExperts: l.OrigExperts,
		Routing:     append([]int(nil), l.Routing...),
		Experts:     make([]*Expert, len(l.Experts)),
		TopK:        l.TopK,
	}
	for i, e := range l.Experts {
		c.Experts[i] = e.Clone()
	}
	return c
}

// layerCache holds the forward activations needed by backward for one
// sequence through one layer. Caches live in a Workspace and are grown in
// place, so a warm cache serves every sequence without allocating.
type layerCache struct {
	xNorm *tensor.Matrix // LN(layer input)
	attnP *tensor.Matrix // attention probabilities (T × T, +0 above the diagonal), treated constant in backward
	x1    *tensor.Matrix // after attention residual
	xMid  *tensor.Matrix // LN(x1), MoE input
	out   *tensor.Matrix // layer output (next layer's input; kept alive per layer)
	// Per token routing decisions and per-slot expert state, flat so that a
	// cache grows in a few allocations rather than a few per token: token
	// t's slots are [t·slots, t·slots+nRouted[t]). The experts' hidden
	// activations are kept in the forward's by-expert position order
	// (runExperts): slot i's are hidden[hiddenPos[i]·hStride:][:FFN width].
	slots, hStride int
	nRouted        []int     // [t] slots used: distinct experts routed to
	routedExperts  []int     // [slot] expert index (into Experts)
	routedWeights  []float64 // [slot] normalized gate weight
	hiddenPos      []int     // [slot] position of its hidden activations
	hidden         []float64
	invStd1        []float64 // LN statistics for backward approximation
	invStd2        []float64
}

// routes returns the first slot of token t and the experts it was routed
// to, one per slot.
func (c *layerCache) routes(t int) (int, []int) {
	i := t * c.slots
	return i, c.routedExperts[i : i+c.nRouted[t]]
}

// hiddenAt returns slot i's expert hidden activations. Only the slots of
// the rows the forward ran the experts on have them.
func (c *layerCache) hiddenAt(i int) []float64 {
	p := c.hiddenPos[i]
	return c.hidden[p*c.hStride : (p+1)*c.hStride]
}

// routeToken computes the top-k routing for gate probabilities over original
// expert indices, collapsing duplicates introduced by Routing and
// renormalizing the retained gate probabilities. Results go into the
// workspace-backed experts/weights/orig slices (appended from length zero),
// which are returned for the caller to store.
func (l *Layer) routeToken(probs []float64, ws *Workspace, experts []int, weights []float64, orig []int) ([]int, []float64, []int) {
	ws.topkIdx, ws.topkUsed = tensor.TopKInto(ws.topkIdx, ws.topkUsed, probs, l.TopK)
	top := ws.topkIdx
	var sum float64
	for _, o := range top {
		sum += probs[o]
	}
	if sum == 0 {
		sum = 1
	}
	for _, o := range top {
		ei := l.Routing[o]
		pos := -1
		for p, e := range experts {
			if e == ei {
				pos = p
				break
			}
		}
		if pos >= 0 {
			weights[pos] += probs[o] / sum
		} else {
			experts = append(experts, ei)
			weights = append(weights, probs[o]/sum)
		}
		orig = append(orig, o)
	}
	return experts, weights, orig
}

// Forward runs the layer on x (T × D) with c caching activations for backward
// and ws providing all transient buffers; it returns the layer output (owned
// by c, valid until c is reused). Every row is attended and routed, but the
// experts run only on rows [lo, hi): the output's other rows hold the
// attention residual alone, for a caller that reads none of them (the top
// layer of a loss pass). If stats is non-nil, routing decisions and attention
// scores are recorded under sampleID.
func (l *Layer) Forward(layerIdx int, x *tensor.Matrix, c *layerCache, ws *Workspace, stats *ActivationStats, sampleID, lo, hi int) *tensor.Matrix {
	T, D := x.Rows, x.Cols

	// Pre-norm for attention.
	c.xNorm = tensor.Grow(c.xNorm, T, D)
	c.invStd1 = growFloats(c.invStd1, T)
	layerNormRows(c.xNorm, x, 0, c.invStd1)

	// Single-head causal attention. The keys land transposed (D × T), so
	// that each row's scores are one AxpyRows; backward reads no key.
	ws.q = tensor.Grow(ws.q, T, D)
	ws.v = tensor.Grow(ws.v, T, D)
	ws.kT = tensor.Grow(ws.kT, D, T)
	ws.mul.MatMulInto(ws.q, c.xNorm, l.Wq)
	ws.mul.MatMulIntoCols(ws.kT, 0, c.xNorm, l.Wk)
	ws.mul.MatMulInto(ws.v, c.xNorm, l.Wv)
	// Row t attends over its live prefix [0, t] only; the masked positions
	// above the diagonal get probability +0, which backward's
	// MatMulTransAInto and the attnRecv sums below read.
	c.attnP = tensor.Grow(c.attnP, T, T)
	ws.attnOut = tensor.Grow(ws.attnOut, T, D)
	attend(ws.attnOut, c.attnP, 0, ws.q, ws.kT, ws.v.Data)
	for t := 0; t < T; t++ {
		clear(c.attnP.Row(t)[t+1:])
	}
	c.x1 = tensor.Grow(c.x1, T, D)
	c.x1.CopyFrom(x)
	c.x1.AddScaled(ws.attnOut, 1)

	// Per-token attention "received" score: how much total attention mass
	// other tokens place on this token. This is the ā_e signal of §5.3,
	// consumed only by stats recording.
	if stats != nil {
		ws.attnRecv = growFloats(ws.attnRecv, T)
		for t := range ws.attnRecv {
			ws.attnRecv[t] = 0
		}
		for t := 0; t < T; t++ {
			row := c.attnP.Row(t)
			for u := 0; u <= t; u++ {
				ws.attnRecv[u] += row[u]
			}
		}
	}

	return l.moeBlock(layerIdx, c, ws, stats, sampleID, lo, hi)
}

// moeBlock is the second half of the layer, shared by Forward and extend:
// pre-norm of the attention residual c.x1, gate softmax and top-k routing on
// every row, then the routed experts' FFNs and the weighted residual sum into
// c.out, which it returns, on rows [lo, hi). Every output row depends only
// on that row of c.x1 — the property extend's bit-identity rests on.
//
// It runs in three passes, as Layer.Backward does. The first, in token
// order, routes every row and records its stats. The second, in
// runExperts, runs each expert over its routed tokens in rows [lo, hi),
// four tokens a kernel call, while its weights stay in cache. The third
// adds each routed token's output into its row in slot order. Every hidden
// and output element takes the same terms in the same order as one
// Expert.Forward per routed token would give it, so the bits are that
// loop's (TestMoEForwardByExpertBitIdentity).
func (l *Layer) moeBlock(layerIdx int, c *layerCache, ws *Workspace, stats *ActivationStats, sampleID, lo, hi int) *tensor.Matrix {
	T, D := c.x1.Rows, c.x1.Cols

	// Pre-norm for MoE.
	c.xMid = tensor.Grow(c.xMid, T, D)
	c.invStd2 = growFloats(c.invStd2, T)
	layerNormRows(c.xMid, c.x1, 0, c.invStd2)

	// Gate logits for all tokens are one fused matmul (same ascending-i
	// accumulation as a per-token inner loop), and their softmaxes one
	// SoftmaxRows call, in place.
	ws.gateProbs = tensor.Grow(ws.gateProbs, T, l.OrigExperts)
	ws.mul.MatMulInto(ws.gateProbs, c.xMid, l.Gate)
	tensor.SoftmaxRows(ws.gateProbs, l.OrigExperts)
	// A token routes to at most TopK distinct experts.
	c.slots, c.hStride = l.TopK, 0
	for _, ex := range l.Experts {
		c.hStride = max(c.hStride, len(ex.B1))
	}
	c.nRouted = growInts(c.nRouted, T)
	c.routedExperts = growInts(c.routedExperts, T*c.slots)
	c.routedWeights = growFloats(c.routedWeights, T*c.slots)
	for t := 0; t < T; t++ {
		// routeToken appends in place: its slices have room for every slot.
		i := t * c.slots
		experts, _, orig := l.routeToken(ws.gateProbs.Row(t), ws,
			c.routedExperts[i:i:i+c.slots], c.routedWeights[i:i:i+c.slots], ws.routeOrig[:0])
		c.nRouted[t] = len(experts)
		ws.routeOrig = orig
		if stats != nil {
			// Profiling-only branch: training and inference hot loops pass
			// stats == nil, so recordToken's bookkeeping maps never run there.
			stats.recordToken(layerIdx, orig, ws.attnRecv[t], sampleID)
		}
	}
	return l.runExperts(c, ws, lo, hi)
}

// runExperts writes c.out: c.x1 plus, on rows [lo, hi), each routed
// expert's output times its gate weight, under the routing c holds. Each
// expert's routed tokens in those rows take consecutive positions, in token
// order (ws.posRow maps a position to its row, c.hiddenPos a slot to its
// position), and Expert.forwardRows runs them while the expert's weights
// stay in cache, leaving their hidden activations in c.hidden, for
// backward, and their outputs in ws.eOutBlk. Then every row adds its slots'
// outputs in slot order. The other rows' slots get no position.
func (l *Layer) runExperts(c *layerCache, ws *Workspace, lo, hi int) *tensor.Matrix {
	T, D := c.x1.Rows, c.x1.Cols
	out := tensor.Grow(c.out, T, D)
	c.out = out
	out.CopyFrom(c.x1)
	c.hiddenPos = growInts(c.hiddenPos, T*c.slots)
	c.hidden = growFloats(c.hidden, T*c.slots*c.hStride)
	ws.posRow = growInts(ws.posRow, T*c.slots)
	ws.eOutBlk = growFloats(ws.eOutBlk, T*c.slots*D)
	if hi-lo == 1 {
		// One row, a decode step: its experts are distinct, so each slot
		// is its own position, in slot order, and its output is added as
		// soon as it is made.
		i, experts := c.routes(lo)
		ws.posRow[0] = lo
		for s, ei := range experts {
			c.hiddenPos[i+s] = s
			eOut := ws.eOutBlk[s*D : (s+1)*D]
			l.Experts[ei].forwardRows(c.xMid, ws.posRow[:1], c.hidden[s*c.hStride:], c.hStride, eOut, ws)
			tensor.Axpy(c.routedWeights[i+s], eOut, out.Row(lo))
		}
		return out
	}

	ws.blockStart = growInts(ws.blockStart, len(l.Experts))
	ws.blockNext = growInts(ws.blockNext, len(l.Experts))
	start, next := ws.blockStart, ws.blockNext
	clear(next)
	for t := lo; t < hi; t++ {
		_, experts := c.routes(t)
		for _, ei := range experts {
			next[ei]++
		}
	}
	P := 0
	for e, n := range next {
		start[e], next[e] = P, P
		P += n
	}
	for t := lo; t < hi; t++ {
		i, experts := c.routes(t)
		for s, ei := range experts {
			p := next[ei]
			next[ei]++
			c.hiddenPos[i+s], ws.posRow[p] = p, t
		}
	}
	for e, ex := range l.Experts {
		if p, q := start[e], next[e]; p < q {
			ex.forwardRows(c.xMid, ws.posRow[p:q], c.hidden[p*c.hStride:], c.hStride, ws.eOutBlk[p*D:], ws)
		}
	}
	for t := lo; t < hi; t++ {
		i, experts := c.routes(t)
		orow := out.Row(t)
		for s := range experts {
			p := c.hiddenPos[i+s]
			tensor.Axpy(c.routedWeights[i+s], ws.eOutBlk[p*D:(p+1)*D], orow)
		}
	}
	return out
}

// attend computes causal attention for the rows of q, which sit at
// positions p, p+1, … of their sequence: row t's scores against key
// columns u = 0…p+t of kT, scaled, go into row t of scores; all rows are
// softmaxed in one tensor.SoftmaxRows call; then out's row t (overwritten)
// gets the probability-weighted sum of value rows u of v, in ascending u.
// kT holds the keys transposed, one row of kT.Cols positions per dimension
// of q, and v holds q.Cols columns per row; scores needs p+q.Rows columns.
// Forward and extend both attend through it, so their rows agree bit for
// bit by construction.
//
// Both products take the rows four at a time, through tensor.MulRows, and
// a last one to three rows — every row of a decode step — one AxpyRows
// each. Each block's scores run to the block's widest live prefix, so a
// row's entries just past its own prefix may be written: Forward clears
// them, and extend never reads them. Each score is one AxpyRows output from
// +0, so it adds its terms in ascending dimension order, the bits of Dot of
// q with the key row. The value sums run the block over its shortest live
// prefix, from +0, and each longer row's remaining terms then follow in one
// AxpyRows that continues the same chain: no row takes a term past its
// prefix, not even a +0·v one, which would change the bits of a non-finite
// value.
// Leaving the masked positions out matches the full-row form — −Inf
// scores, a T-wide softmax and a T×T value matmul — bit for bit whenever
// the live scores and values are finite: a −Inf score never changes the
// row maximum, its exp is +0, which leaves the sum unchanged, its
// probability is +0/sum = +0, and the +0·v terms the matmul would add leave
// every accumulator unchanged (one that starts at +0 never holds −0).
func attend(out, scores *tensor.Matrix, p int, q, kT *tensor.Matrix, v []float64) {
	T, D, S := q.Rows, q.Cols, scores.Cols
	scale := 1 / math.Sqrt(float64(D))
	t := 0
	for ; t+4 <= T; t += 4 {
		tensor.MulRows(scores.Data[t*S:], S, q.Data[t*D:], D, kT.Data, kT.Cols, nil, 4, D, p+t+4)
	}
	for ; t < T; t++ {
		row := scores.Row(t)[:p+t+1]
		clear(row)
		tensor.AxpyRows(row, q.Row(t), kT.Data, kT.Cols)
	}
	for t := range T {
		row := scores.Row(t)[:p+t+1]
		for u := range row {
			row[u] *= scale
		}
	}
	tensor.SoftmaxRows(scores, p)
	t = 0
	for ; t+4 <= T; t += 4 {
		k := p + t + 1
		tensor.MulRows(out.Data[t*D:], D, scores.Data[t*S:], S, v, D, nil, 4, k, D)
		for i := t + 1; i < t+4; i++ {
			tensor.AxpyRows(out.Row(i), scores.Row(i)[k:p+i+1], v[k*D:], D)
		}
	}
	for ; t < T; t++ {
		row := out.Row(t)
		clear(row)
		tensor.AxpyRows(row, scores.Row(t)[:p+t+1], v, D)
	}
}

// extend is the inference-only incremental form of Forward: x holds the n
// rows at positions [p, p+n) of a sequence whose first p rows already went
// through this layer, leaving their keys and values in kv. The new rows'
// keys are written into cache columns [p, p+n), their values straight into
// cache rows [p, p+n), and new row t attends over positions [0, p+t]. The
// output (n × D, owned by c) is bit-identical to rows [p, p+n) of Forward
// on the whole sequence: the projections, layer norms and moeBlock are per
// row, and attend gives row t the bits Forward's attend gives position
// p+t, on the same key and value rows.
func (l *Layer) extend(x *tensor.Matrix, p int, kv *kvCache, c *layerCache, ws *Workspace) *tensor.Matrix {
	n, D := x.Rows, x.Cols

	c.xNorm = tensor.Grow(c.xNorm, n, D)
	c.invStd1 = growFloats(c.invStd1, n)
	layerNormRows(c.xNorm, x, 0, c.invStd1)

	ws.q = tensor.Grow(ws.q, n, D)
	ws.mul.MatMulInto(ws.q, c.xNorm, l.Wq)
	ws.mul.MatMulIntoCols(kv.kT, p, c.xNorm, l.Wk)
	ws.mul.MatMulInto(ws.cacheRows(kv.v, p, n), c.xNorm, l.Wv)
	ws.attnScores = tensor.Grow(ws.attnScores, n, p+n)
	ws.attnOut = tensor.Grow(ws.attnOut, n, D)
	attend(ws.attnOut, ws.attnScores, p, ws.q, kv.kT, kv.v.Data)
	c.x1 = tensor.Grow(c.x1, n, D)
	c.x1.CopyFrom(x)
	c.x1.AddScaled(ws.attnOut, 1)
	return l.moeBlock(-1, c, ws, nil, -1, 0, n) // no stats, so the layer index is unused
}

// Backward propagates dOut (gradient of the loss w.r.t. the layer output)
// through the layer. Trainable experts accumulate parameter gradients (and
// their token-gradient magnitudes) into grads; frozen experts only carry
// dL/dx and get no entry in grads. The gradient w.r.t. the layer input is
// written into dXIn (fully overwritten; must be T × D). A nil dXIn means no
// layer below consumes it: only the trainable experts' parameter gradients
// are computed — no frozen-expert work, no LN2 or attention backward. All
// scratch comes from ws.
//
// The MoE block runs in three passes, so that the expert products take
// their routed tokens four at a time. The first, in token order, computes
// each routed token's dy = w·dOut[t] straight into its expert's blocks of
// four, each token a lane, and records the token-gradient norms and counts.
// The second, by expert, runs each block through Expert.backwardBlock: both
// products through the weights are tensor.DotRows4 calls, and the weight
// gradients are accumulated lane by lane, so in token order. The third, in
// token order again, adds each routed token's dx into the row's sum in slot
// order and runs the LN2 backward. Every accumulator takes the same terms
// in the same order as in a per-token pass, one Expert backward per routed
// token; only which outputs share a kernel call changes, so the bits are
// that pass's (TestLayerBackwardByExpertBitIdentity).
//
// A row whose output gradient is exactly +0 — every row a loss pass leaves
// unscored in the top layer, and below it every row past the last scored
// one — only counts its routed tokens: every product it would feed into an
// accumulator is ±0, and an accumulator that starts at +0 never holds −0, so
// adding ±0 leaves it unchanged; its LN2 backward adds +0 to a +0 row. The
// rows after the last live one carry +0 through the attention backward too
// (their attention weights on live rows are +0 above the diagonal), so their
// input gradient is +0 without computing it. The forward pass need not have
// run the experts on such rows (Forward's lo/hi), since their hidden
// activations are never read.
func (l *Layer) Backward(layerIdx int, c *layerCache, dOut, dXIn *tensor.Matrix, ws *Workspace, grads *Grads) {
	T, D := dOut.Rows, dOut.Cols
	propagate := dXIn != nil

	// MoE block backward. out = x1 + Σ w_e · Expert_e(xMid).
	//
	// Count the live rows' routed tokens per expert, then give every expert
	// consecutive positions from a multiple of four, so that each block of
	// four positions belongs to one expert. A frozen expert's tokens get no
	// position when nothing below reads dx.
	ws.live = growBools(ws.live, T)
	ws.blockStart = growInts(ws.blockStart, len(l.Experts))
	ws.blockNext = growInts(ws.blockNext, len(l.Experts))
	start, next := ws.blockStart, ws.blockNext
	clear(next)
	first, end := T, 0 // the live rows: [first, end) holds every non-+0 one
	for t := 0; t < T; t++ {
		ws.live[t] = !isPositiveZero(dOut.Row(t))
		if !ws.live[t] {
			continue
		}
		first, end = min(first, t), t+1
		_, experts := c.routes(t)
		for _, ei := range experts {
			if propagate || !l.Experts[ei].Frozen {
				next[ei]++
			}
		}
	}
	P := 0
	for e, n := range next {
		start[e], next[e] = P, P
		P += (n + 3) &^ 3
	}
	ws.posSlot = growInts(ws.posSlot, P)
	ws.slotPos = growInts(ws.slotPos, T*c.slots)
	ws.dyBlk = growFloats(ws.dyBlk, P*D)
	ws.dyTok = growFloats(ws.dyTok, D)
	dyTok := ws.dyTok

	// Pass 1, in token order: every routed token's dy into its lane of its
	// expert's block, and the token-gradient counters.
	for t := 0; t < T; t++ {
		i, experts := c.routes(t)
		if !ws.live[t] {
			for _, ei := range experts {
				if ex := l.Experts[ei]; !ex.Frozen {
					grads.countToken(layerIdx, ei, ex)
				}
			}
			continue
		}
		dorow := dOut.Row(t)
		for s, ei := range experts {
			ex := l.Experts[ei]
			if ex.Frozen && !propagate {
				continue
			}
			p := next[ei]
			next[ei]++
			ws.posSlot[p], ws.slotPos[i+s] = i+s, p
			lane := blockLane(ws.dyBlk, p, D)
			w := c.routedWeights[i+s]
			if ex.Frozen {
				for d, v := range dorow {
					lane[d*4] = w * v
				}
				continue
			}
			for d, v := range dorow {
				dyTok[d] = w * v
				lane[d*4] = dyTok[d]
			}
			grads.recordTokenGrad(layerIdx, ei, dyTok)
			grads.expertGrad(layerIdx, ei, ex)
		}
	}

	// Pass 2, by expert: its blocks in token order.
	if propagate {
		ws.sumBlk = growFloats(ws.sumBlk, P*D)
	}
	for e, ex := range l.Experts {
		var g *ExpertGrad
		if !ex.Frozen {
			g = grads.Experts[layerIdx][e]
		}
		for p := start[e]; p < next[e]; p += 4 {
			var sum []float64
			if propagate {
				sum = ws.sumBlk[p*D : (p+4)*D]
			}
			ex.backwardBlock(g, c, ws.posSlot[p:min(p+4, next[e])], ws.dyBlk[p*D:(p+4)*D], sum, ws)
		}
	}
	if !propagate {
		return
	}

	// Pass 3, in token order: dx = Σ each routed token's sum, in slot order,
	// then the LN2 backward (exact) onto the residual path.
	ws.dX1 = tensor.Grow(ws.dX1, T, D)
	ws.dX1.CopyFrom(dOut)
	ws.dxTok = growFloats(ws.dxTok, D)
	dx := ws.dxTok
	for t := first; t < end; t++ {
		if !ws.live[t] {
			continue
		}
		clear(dx)
		i, experts := c.routes(t)
		for s := range experts {
			lane := blockLane(ws.sumBlk, ws.slotPos[i+s], D)
			for d := range dx {
				dx[d] += lane[d*4]
			}
		}
		layerNormBackward(ws.dX1.Row(t), dx, c.xMid.Row(t), c.invStd2[t])
	}
	dXIn.CopyFrom(ws.dX1)
	if first >= end {
		return // every row is +0, and so is the input gradient
	}

	// Attention backward with frozen probabilities:
	// x1 = xIn + P · (xNorm·Wv)  ⇒  dxNorm = Pᵀ·dX1·Wvᵀ; dxIn = dX1 (+ LN1 path).
	// Only the live rows of dX1 contribute, and only rows [0, end) of dV —
	// hence of dxNorm and the LN1 path — are nonzero.
	ws.dV = tensor.Grow(ws.dV, T, D)
	ws.pRows = rowView(ws.pRows, c.attnP, first, end)
	ws.dX1Rows = rowView(ws.dX1Rows, ws.dX1, first, end)
	tensor.MatMulTransAInto(ws.dV, &ws.pRows, &ws.dX1Rows) // (T×T)ᵀ × (T×D)
	ws.dXNorm = tensor.Grow(ws.dXNorm, end, D)
	ws.dVRows = rowView(ws.dVRows, ws.dV, 0, end)
	ws.mul.MatMulTransBInto(ws.dXNorm, &ws.dVRows, l.Wv)
	for t := 0; t < end; t++ {
		layerNormBackward(dXIn.Row(t), ws.dXNorm.Row(t), c.xNorm.Row(t), c.invStd1[t])
	}
}

// blockLane returns position p's lane of b, which holds blocks of four
// interleaved width-long vectors, position p in lane p mod 4 of block p/4:
// the lane's element d is the returned slice's element 4·d.
func blockLane(b []float64, p, width int) []float64 {
	return b[(p&^3)*width+p&3:]
}

// isPositiveZero reports whether every element of row is +0, bit for bit.
func isPositiveZero(row []float64) bool {
	for _, v := range row {
		if math.Float64bits(v) != 0 {
			return false
		}
	}
	return true
}

// rowView returns v pointed at rows [from, to) of m, sharing its storage.
func rowView(v tensor.Matrix, m *tensor.Matrix, from, to int) tensor.Matrix {
	v.Rows, v.Cols = to-from, m.Cols
	v.Data = m.Data[from*m.Cols : to*m.Cols]
	return v
}

// layerNormBackward accumulates into dx the exact gradient of LayerNorm
// given the upstream gradient dy, the normalized output xhat, and 1/std:
// dx += inv · (dy − mean(dy) − xhat·mean(dy∘xhat)).
func layerNormBackward(dx, dy, xhat []float64, inv float64) {
	n := float64(len(dy))
	var sumDy, sumDyXhat float64
	for i, d := range dy {
		sumDy += d
		sumDyXhat += float64(d * xhat[i])
	}
	mDy, mDyXhat := sumDy/n, sumDyXhat/n
	for i, d := range dy {
		dx[i] += float64(inv * (d - mDy - float64(xhat[i]*mDyXhat)))
	}
}

// layerNormRows writes LayerNorm of src's rows [from, from+dst.Rows) into
// dst's rows, and each row's 1/std into inv. Each row is
// layerNormRow's arithmetic, bit for bit, but the rows go four at a time
// through layerNorm4, whose four mean and variance sums run interleaved:
// each sum is one serial chain of dependent adds, so a row alone leaves the
// adder waiting on its latency. Left-over rows go through layerNormRow.
func layerNormRows(dst, src *tensor.Matrix, from int, inv []float64) {
	T := dst.Rows
	t := 0
	for ; t+4 <= T; t += 4 {
		inv[t], inv[t+1], inv[t+2], inv[t+3] = layerNorm4(
			dst.Row(t), dst.Row(t+1), dst.Row(t+2), dst.Row(t+3),
			src.Row(from+t), src.Row(from+t+1), src.Row(from+t+2), src.Row(from+t+3))
	}
	for ; t < T; t++ {
		inv[t] = layerNormRow(dst.Row(t), src.Row(from+t))
	}
}

// layerNormEps is the variance floor of every layer norm.
const layerNormEps = 1e-5

// layerNorm4 is layerNormRow on four rows of one width at once: each row's
// mean and variance are still their own ascending sums from +0, in the
// same rounded steps, but the four rows' chains share one loop.
func layerNorm4(d0, d1, d2, d3, s0, s1, s2, s3 []float64) (i0, i1, i2, i3 float64) {
	n := len(s0)
	s1, s2, s3 = s1[:n], s2[:n], s3[:n]
	d0, d1, d2, d3 = d0[:n], d1[:n], d2[:n], d3[:n]
	var m0, m1, m2, m3 float64
	for i, x := range s0 {
		m0 += x
		m1 += s1[i]
		m2 += s2[i]
		m3 += s3[i]
	}
	fn := float64(n)
	m0, m1, m2, m3 = m0/fn, m1/fn, m2/fn, m3/fn
	var v0, v1, v2, v3 float64
	for i, x := range s0 {
		e0, e1, e2, e3 := x-m0, s1[i]-m1, s2[i]-m2, s3[i]-m3
		v0 += float64(e0 * e0)
		v1 += float64(e1 * e1)
		v2 += float64(e2 * e2)
		v3 += float64(e3 * e3)
	}
	i0 = 1 / math.Sqrt(v0/fn+layerNormEps)
	i1 = 1 / math.Sqrt(v1/fn+layerNormEps)
	i2 = 1 / math.Sqrt(v2/fn+layerNormEps)
	i3 = 1 / math.Sqrt(v3/fn+layerNormEps)
	for i, x := range s0 {
		d0[i] = (x - m0) * i0
		d1[i] = (s1[i] - m1) * i1
		d2[i] = (s2[i] - m2) * i2
		d3[i] = (s3[i] - m3) * i3
	}
	return i0, i1, i2, i3
}

// layerNormRow writes LayerNorm(src) into dst and returns 1/std for the
// frozen-statistics backward approximation.
func layerNormRow(dst, src []float64) float64 {
	m := tensor.Mean(src)
	var va float64
	for _, x := range src {
		d := x - m
		va += float64(d * d)
	}
	va /= float64(len(src))
	inv := 1 / math.Sqrt(va+layerNormEps)
	for i, x := range src {
		dst[i] = (x - m) * inv
	}
	return inv
}
