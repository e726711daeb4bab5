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
	attnP *tensor.Matrix // attention probabilities (T × T), treated constant in backward
	x1    *tensor.Matrix // after attention residual
	xMid  *tensor.Matrix // LN(x1), MoE input
	out   *tensor.Matrix // layer output (next layer's input; kept alive per layer)
	// Per token routing decisions and per-slot expert state.
	routedExperts [][]int       // [t][slot] expert index (into Experts)
	routedWeights [][]float64   // [t][slot] normalized gate weight
	hidden        [][][]float64 // [t][slot] expert hidden activations
	invStd1       []float64     // LN statistics for backward approximation
	invStd2       []float64
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
			experts = append(experts, ei)           //fluxvet:allow hotalloc appends into a workspace-backed slice resliced to length 0; warm capacity covers top-k, so steady state never grows
			weights = append(weights, probs[o]/sum) //fluxvet:allow hotalloc same workspace-backed slice discipline as experts above
		}
		orig = append(orig, o) //fluxvet:allow hotalloc same workspace-backed slice discipline as experts above
	}
	return experts, weights, orig
}

// Forward runs the layer on x (T × D) with c caching activations for backward
// and ws providing all transient buffers; it returns the layer output (owned
// by c, valid until c is reused). If stats is non-nil, routing decisions and
// attention scores are recorded under sampleID.
func (l *Layer) Forward(layerIdx int, x *tensor.Matrix, c *layerCache, ws *Workspace, stats *ActivationStats, sampleID int) *tensor.Matrix {
	T, D := x.Rows, x.Cols

	// Pre-norm for attention.
	c.xNorm = tensor.Grow(c.xNorm, T, D)
	c.invStd1 = growFloats(c.invStd1, T)
	for t := 0; t < T; t++ {
		c.invStd1[t] = layerNormRow(c.xNorm.Row(t), x.Row(t))
	}

	// Single-head causal attention.
	ws.q = tensor.Grow(ws.q, T, D)
	ws.k = tensor.Grow(ws.k, T, D)
	ws.v = tensor.Grow(ws.v, T, D)
	ws.mul.MatMulInto(ws.q, c.xNorm, l.Wq)
	ws.mul.MatMulInto(ws.k, c.xNorm, l.Wk)
	ws.mul.MatMulInto(ws.v, c.xNorm, l.Wv)
	scale := 1 / math.Sqrt(float64(D))
	c.attnP = tensor.Grow(c.attnP, T, T)
	for t := 0; t < T; t++ {
		row := c.attnP.Row(t)
		qrow := ws.q.Row(t)
		for u := 0; u <= t; u++ {
			row[u] = tensor.Dot(qrow, ws.k.Row(u)) * scale
		}
		for u := t + 1; u < T; u++ {
			row[u] = math.Inf(-1)
		}
		tensor.SoftmaxInPlace(row)
	}
	ws.attnOut = tensor.Grow(ws.attnOut, T, D)
	ws.mul.MatMulInto(ws.attnOut, c.attnP, ws.v)
	c.x1 = tensor.Grow(c.x1, T, D)
	c.x1.CopyFrom(x)
	c.x1.Add(ws.attnOut)

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

	return l.moeBlock(layerIdx, c, ws, stats, sampleID)
}

// moeBlock is the second half of the layer, shared by Forward and extend:
// pre-norm of the attention residual c.x1, gate softmax, top-k routing, the
// routed experts' FFNs and the weighted residual sum into c.out, which it
// returns. Every step is per row, so a row's output depends only on that
// row of c.x1 — the property extend's bit-identity rests on.
func (l *Layer) moeBlock(layerIdx int, c *layerCache, ws *Workspace, stats *ActivationStats, sampleID int) *tensor.Matrix {
	T, D := c.x1.Rows, c.x1.Cols

	// Pre-norm for MoE.
	c.xMid = tensor.Grow(c.xMid, T, D)
	c.invStd2 = growFloats(c.invStd2, T)
	for t := 0; t < T; t++ {
		c.invStd2[t] = layerNormRow(c.xMid.Row(t), c.x1.Row(t))
	}

	// MoE block. Gate logits for all tokens are one fused matmul (same
	// ascending-i accumulation as the former per-token inner loop).
	out := tensor.Grow(c.out, T, D)
	c.out = out
	out.CopyFrom(c.x1)
	ws.gateLogits = tensor.Grow(ws.gateLogits, T, l.OrigExperts)
	ws.mul.MatMulInto(ws.gateLogits, c.xMid, l.Gate)
	c.routedExperts = growOuterInts(c.routedExperts, T)
	c.routedWeights = growOuterFloats(c.routedWeights, T)
	c.hidden = growOuterHidden(c.hidden, T)
	ws.gateProbs = growFloats(ws.gateProbs, l.OrigExperts)
	ws.eOut = growFloats(ws.eOut, D)
	probs := ws.gateProbs
	eOut := ws.eOut
	for t := 0; t < T; t++ {
		xt := c.xMid.Row(t)
		tensor.Softmax(probs, ws.gateLogits.Row(t))
		experts, weights, orig := l.routeToken(probs, ws,
			c.routedExperts[t][:0], c.routedWeights[t][:0], ws.routeOrig[:0])
		c.routedExperts[t] = experts
		c.routedWeights[t] = weights
		ws.routeOrig = orig
		c.hidden[t] = growOuterFloats(c.hidden[t], len(experts))
		orow := out.Row(t)
		for s, ei := range experts {
			h := growFloats(c.hidden[t][s], l.Experts[ei].W1.Cols)
			l.Experts[ei].Forward(xt, h, eOut)
			c.hidden[t][s] = h
			tensor.Axpy(weights[s], eOut[:D], orow[:D])
		}
		if stats != nil {
			// Profiling-only branch: training and inference hot loops pass
			// stats == nil, so recordToken's bookkeeping maps never run there.
			//fluxvet:allow hotalloc stats is nil on the training/inference hot path; recordToken runs only during the per-round profiling pass
			stats.recordToken(layerIdx, orig, ws.attnRecv[t], sampleID)
		}
	}
	return out
}

// extend is the inference-only incremental form of Forward: x holds the n
// rows at positions [p, p+n) of a sequence whose first p rows already went
// through this layer, leaving their key/value rows in kv. The new rows' keys
// and values are written straight into cache rows [p, p+n) and new row t
// attends over cache rows [0, p+t]. The output (n × D, owned by c) is
// bit-identical to rows [p, p+n) of Forward on the whole sequence: the
// projections, layer norms and moeBlock are per row; a masked position's
// score softmaxes to exactly 0, and the +0·v terms Forward's attention
// matmul adds for them leave every accumulator's bits unchanged, so summing
// only u ≤ p+t in the same ascending order gives the same sums.
func (l *Layer) extend(x *tensor.Matrix, p int, kv *kvCache, c *layerCache, ws *Workspace) *tensor.Matrix {
	n, D := x.Rows, x.Cols

	c.xNorm = tensor.Grow(c.xNorm, n, D)
	for t := 0; t < n; t++ {
		layerNormRow(c.xNorm.Row(t), x.Row(t))
	}

	ws.q = tensor.Grow(ws.q, n, D)
	ws.mul.MatMulInto(ws.q, c.xNorm, l.Wq)
	ws.mul.MatMulInto(ws.cacheRows(kv.k, p, n), c.xNorm, l.Wk)
	ws.mul.MatMulInto(ws.cacheRows(kv.v, p, n), c.xNorm, l.Wv)
	scale := 1 / math.Sqrt(float64(D))
	ws.attnOut = tensor.Grow(ws.attnOut, n, D)
	ws.attnOut.Zero()
	ws.attnScores = growFloats(ws.attnScores, p+n)
	for t := 0; t < n; t++ {
		scores := ws.attnScores[:p+t+1]
		qrow := ws.q.Row(t)
		for u := range scores {
			scores[u] = tensor.Dot(qrow, kv.k.Row(u)) * scale
		}
		tensor.SoftmaxInPlace(scores)
		arow := ws.attnOut.Row(t)
		for u, pu := range scores {
			tensor.Axpy(pu, kv.v.Row(u), arow)
		}
	}
	c.x1 = tensor.Grow(c.x1, n, D)
	c.x1.CopyFrom(x)
	c.x1.Add(ws.attnOut)
	return l.moeBlock(-1, c, ws, nil, -1) // no stats, so the layer index is unused
}

// Backward propagates dOut (gradient of the loss w.r.t. the layer output)
// through the layer. Trainable experts accumulate parameter gradients (and
// their token-gradient magnitudes) into grads; frozen experts only carry
// dL/dx and get no entry in grads. The gradient w.r.t. the layer input is
// written into dXIn (fully overwritten; must be T × D). A nil dXIn means no
// layer below consumes it: only the trainable experts' parameter gradients
// are computed — no frozen-expert work, no LN2 or attention backward. All
// scratch comes from ws.
func (l *Layer) Backward(layerIdx int, c *layerCache, dOut, dXIn *tensor.Matrix, ws *Workspace, grads *Grads) {
	T, D := dOut.Rows, dOut.Cols
	propagate := dXIn != nil

	// MoE block backward. out = x1 + Σ w_e · Expert_e(xMid).
	if propagate {
		ws.dX1 = tensor.Grow(ws.dX1, T, D)
		ws.dX1.CopyFrom(dOut) // residual path
		ws.dXMid = tensor.Grow(ws.dXMid, T, D)
		ws.dXMid.Zero() // accumulated into per token-slot below
	}
	ws.dyTok = growFloats(ws.dyTok, D)
	dyTok := ws.dyTok
	for t := 0; t < T; t++ {
		dorow := dOut.Row(t)
		xt := c.xMid.Row(t)
		var dx []float64
		if propagate {
			dx = ws.dXMid.Row(t)
		}
		for s, ei := range c.routedExperts[t] {
			ex := l.Experts[ei]
			if ex.Frozen && !propagate {
				continue
			}
			w := c.routedWeights[t][s]
			for d := 0; d < D; d++ {
				dyTok[d] = w * dorow[d]
			}
			ws.dh = growFloats(ws.dh, len(ex.B1))
			var g *ExpertGrad
			if !ex.Frozen {
				grads.recordTokenGrad(layerIdx, ei, dyTok)
				g = grads.expertGrad(layerIdx, ei, ex)
			}
			ex.Backward(g, xt, c.hidden[t][s], dyTok, dx, ws.dh)
		}
	}
	if !propagate {
		return
	}
	// LN2 backward (exact).
	for t := 0; t < T; t++ {
		layerNormBackward(ws.dX1.Row(t), ws.dXMid.Row(t), c.xMid.Row(t), c.invStd2[t])
	}

	// Attention backward with frozen probabilities:
	// x1 = xIn + P · (xNorm·Wv)  ⇒  dxNorm = Pᵀ·dX1·Wvᵀ; dxIn = dX1 (+ LN1 path).
	ws.dV = tensor.Grow(ws.dV, T, D)
	tensor.MatMulTransAInto(ws.dV, c.attnP, ws.dX1) // (T×T)ᵀ × (T×D)
	ws.dXNorm = tensor.Grow(ws.dXNorm, T, D)
	tensor.MatMulTransBInto(ws.dXNorm, ws.dV, l.Wv)
	dXIn.CopyFrom(ws.dX1)
	for t := 0; t < T; t++ {
		layerNormBackward(dXIn.Row(t), ws.dXNorm.Row(t), c.xNorm.Row(t), c.invStd1[t])
	}
}

// layerNormBackward accumulates into dx the exact gradient of LayerNorm
// given the upstream gradient dy, the normalized output xhat, and 1/std:
// dx += inv · (dy − mean(dy) − xhat·mean(dy∘xhat)).
func layerNormBackward(dx, dy, xhat []float64, inv float64) {
	n := float64(len(dy))
	var sumDy, sumDyXhat float64
	for i, d := range dy {
		sumDy += d
		sumDyXhat += d * xhat[i]
	}
	mDy, mDyXhat := sumDy/n, sumDyXhat/n
	for i, d := range dy {
		dx[i] += inv * (d - mDy - xhat[i]*mDyXhat)
	}
}

// layerNormRow writes LayerNorm(src) into dst and returns 1/std for the
// frozen-statistics backward approximation.
func layerNormRow(dst, src []float64) float64 {
	const eps = 1e-5
	m := tensor.Mean(src)
	var va float64
	for _, x := range src {
		d := x - m
		va += d * d
	}
	va /= float64(len(src))
	inv := 1 / math.Sqrt(va+eps)
	for i, x := range src {
		dst[i] = (x - m) * inv
	}
	return inv
}
