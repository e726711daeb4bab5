package moe

import "repro/internal/tensor"

// Workspace owns every transient buffer a forward or backward pass touches:
// the per-layer activation caches (normed inputs, attention probabilities,
// residuals, expert hidden states, routing decisions), the per-token logit
// and softmax scratch, the backward-pass gradient matrices, and the tiled
// matmul packing buffer. Buffers grow on demand to the high-water shape and
// are then reused across tokens, layers, local iterations, and participants,
// so steady-state ForwardBackwardWS performs zero heap allocations
// (TestForwardBackwardZeroAllocs pins this).
//
// A Workspace is NOT goroutine-safe: it must be owned by exactly one
// goroutine at a time. The federated engine keeps one per worker scratch
// (fed.Scratch.Workspace), which satisfies that by construction. Matrices
// returned by the *WS model methods alias workspace storage and are valid
// only until the next call with the same workspace.
//
// Reusing one workspace across models of different shapes is fine — buffers
// are sized per call — and changes no math: every buffer is either fully
// overwritten or explicitly zeroed before use, so results are bit-identical
// to a fresh workspace's.
//
// The workspace also owns the decode state of incremental inference: one
// key/value cache per layer plus the count of positions cached. GenerateWS
// and ScoreOptionsWS reset it on entry, so it is valid for exactly one call
// and nothing a previous call (or a forward/backward pass, which shares the
// per-layer activation buffers) left behind can leak into the next.
type Workspace struct {
	mul tensor.MulScratch

	// Forward state. caches[l] persists layer l's activations for backward.
	caches  []*layerCache
	x       *tensor.Matrix // token embeddings (layer 0 input)
	q, k, v *tensor.Matrix // attention projections (transient per layer)
	attnOut *tensor.Matrix

	// Decode state (resetDecode / Model.extendWS): kv[l] holds layer l's
	// key/value rows for the decLen positions already pushed through the
	// model; kvNew is the MatMulInto target viewing the cache rows being
	// written; attnScores is one new row's attention scores.
	kv         []kvCache
	decLen     int
	kvNew      tensor.Matrix
	attnScores []float64
	scores     []float64 // Scores: the caller-facing per-option result buffer

	// Routing scratch, reused across tokens.
	gateLogits *tensor.Matrix
	gateProbs  []float64
	topkIdx    []int
	topkUsed   []bool
	routeOrig  []int
	eOut       []float64
	attnRecv   []float64

	// Final layer norm + head.
	normed *tensor.Matrix
	invStd []float64
	logits *tensor.Matrix

	// Loss and backward state.
	ceProbs  []float64
	dLogits  *tensor.Matrix
	dNormed  *tensor.Matrix
	headGrad *tensor.Matrix
	dX       [2]*tensor.Matrix // ping-pong dL/dx chain through the layers
	dX1      *tensor.Matrix
	dXMid    *tensor.Matrix
	dV       *tensor.Matrix
	dXNorm   *tensor.Matrix
	dyTok    []float64
	dh       []float64
}

// NewWorkspace returns an empty workspace; buffers are allocated lazily on
// first use and reused afterwards.
//
//fluxvet:allow hotalloc cold-start constructor: hot callers reach it only through their nil-workspace fallback, once per caller lifetime; warm callers pass their own workspace
func NewWorkspace() *Workspace { return &Workspace{} }

// cachesFor returns n per-layer caches, growing the pool while preserving
// previously allocated cache buffers.
func (ws *Workspace) cachesFor(n int) []*layerCache {
	for len(ws.caches) < n {
		//fluxvet:allow hotalloc pool growth to the layer-count high-water mark; once the pool is full the loop body never executes again
		ws.caches = append(ws.caches, &layerCache{})
	}
	return ws.caches[:n]
}

// kvCache is one layer's attention keys and values, one row per cached
// position.
type kvCache struct{ k, v *tensor.Matrix }

// resetDecode empties the decode state and sizes every layer's cache for a
// sequence of up to rows positions.
func (ws *Workspace) resetDecode(layers, rows, dim int) {
	for len(ws.kv) < layers {
		//fluxvet:allow hotalloc pool growth to the layer-count high-water mark; once the pool is full the loop body never executes again
		ws.kv = append(ws.kv, kvCache{})
	}
	for l := range ws.kv[:layers] {
		ws.kv[l].k = tensor.Grow(ws.kv[l].k, rows, dim)
		ws.kv[l].v = tensor.Grow(ws.kv[l].v, rows, dim)
	}
	ws.decLen = 0
}

// cacheRows returns ws.kvNew pointed at rows [p, p+n) of the cache matrix m,
// so a matmul writes new key/value rows straight into the cache. The view
// never leaves the layer that asked for it.
func (ws *Workspace) cacheRows(m *tensor.Matrix, p, n int) *tensor.Matrix {
	ws.kvNew.Rows, ws.kvNew.Cols = n, m.Cols
	ws.kvNew.Data = m.Data[p*m.Cols : (p+n)*m.Cols]
	return &ws.kvNew
}

// Scores returns a length-n scratch slice for ScoreOptionsWS results, owned
// by ws and valid until its next call. Contents are unspecified.
func (ws *Workspace) Scores(n int) []float64 {
	ws.scores = growFloats(ws.scores, n)
	return ws.scores
}

// growFloats returns a length-n float64 slice, reusing s's storage when its
// capacity suffices. Contents are unspecified; callers fully overwrite.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		//fluxvet:allow hotalloc grow-on-demand: allocates only until the high-water capacity is reached, then the cap check short-circuits
		return make([]float64, n)
	}
	return s[:n]
}

// growOuterInts returns a length-n [][]int whose inner slices — including
// those parked beyond the previous length from earlier high-water marks —
// are preserved for reuse.
func growOuterInts(s [][]int, n int) [][]int {
	if cap(s) < n {
		//fluxvet:allow hotalloc grow-on-demand: allocates only until the high-water capacity is reached, then the cap check short-circuits
		ns := make([][]int, n)
		copy(ns, s[:cap(s)])
		return ns
	}
	return s[:n]
}

// growOuterFloats is growOuterInts for [][]float64.
func growOuterFloats(s [][]float64, n int) [][]float64 {
	if cap(s) < n {
		//fluxvet:allow hotalloc grow-on-demand: allocates only until the high-water capacity is reached, then the cap check short-circuits
		ns := make([][]float64, n)
		copy(ns, s[:cap(s)])
		return ns
	}
	return s[:n]
}

// growOuterHidden is growOuterInts for the [token][slot][unit] hidden-state
// buffers.
func growOuterHidden(s [][][]float64, n int) [][][]float64 {
	if cap(s) < n {
		//fluxvet:allow hotalloc grow-on-demand: allocates only until the high-water capacity is reached, then the cap check short-circuits
		ns := make([][][]float64, n)
		copy(ns, s[:cap(s)])
		return ns
	}
	return s[:n]
}
