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
	q, v    *tensor.Matrix // attention projections (transient per layer)
	kT      *tensor.Matrix // the keys transposed, D × T: one AxpyRows per row's scores
	attnOut *tensor.Matrix

	// Decode state (resetDecode / Model.extendWS): kv[l] holds layer l's
	// keys and values for the decLen positions already pushed through the
	// model; kvNew is the MatMulInto target viewing the value rows being
	// written; attnScores holds the new rows' attention scores.
	kv         []kvCache
	decLen     int
	kvNew      tensor.Matrix
	attnScores *tensor.Matrix
	scores     []float64 // Scores: the caller-facing per-option result buffer

	// Routing scratch, reused across tokens. gateProbs holds every row's
	// gate logits, then their softmaxes.
	gateProbs *tensor.Matrix
	topkIdx   []int
	topkUsed  []bool
	routeOrig []int
	attnRecv  []float64

	// The forward's expert positions (runExperts): posRow[p] is position
	// p's row and eOutBlk its expert output, Dim wide; blockStart and
	// blockNext, below, hold each expert's positions. xBlk holds a block of
	// four positions' inputs for the W1 sweep (Expert.forwardRows).
	posRow        []int
	xBlk, eOutBlk []float64

	// Final layer norm + head, over the rows from headFrom on.
	normed   *tensor.Matrix
	invStd   []float64
	logits   *tensor.Matrix
	headFrom int

	// Loss and backward state.
	ceProbs  []float64
	dLogits  *tensor.Matrix
	dNormed  *tensor.Matrix
	headGrad *tensor.Matrix
	dX       [2]*tensor.Matrix // ping-pong dL/dx chain through the layers
	dX1      *tensor.Matrix
	dV       *tensor.Matrix
	dXNorm   *tensor.Matrix

	// Layer.Backward's expert blocks. live[t] is whether row t's output
	// gradient is not +0; each expert's routed tokens hold positions
	// [blockStart[e], blockNext[e]), in token order; posSlot and slotPos map
	// positions to routing slots and back; dyBlk and sumBlk hold each
	// position's dy and dx sum, four positions interleaved per block
	// (blockLane). dhBlk is one block's dh; dyTok, dhTok and dxTok are one
	// token's dy, dh and dx.
	live                  []bool
	blockStart, blockNext []int
	posSlot, slotPos      []int
	dyBlk, sumBlk, dhBlk  []float64
	dyTok, dhTok, dxTok   []float64

	// Row views of the attention backward's live rows (Layer.Backward).
	pRows, dX1Rows, dVRows tensor.Matrix

	probe []float64 // ProbeFloats
}

// NewWorkspace returns an empty workspace; buffers are allocated lazily on
// first use and reused afterwards.
func NewWorkspace() *Workspace { return &Workspace{} }

// cachesFor returns n per-layer caches, growing the pool while preserving
// previously allocated cache buffers.
func (ws *Workspace) cachesFor(n int) []*layerCache {
	for len(ws.caches) < n {
		ws.caches = append(ws.caches, &layerCache{})
	}
	return ws.caches[:n]
}

// kvCache is one layer's attention keys and values: the keys transposed,
// one column per cached position (Dim × capacity), as attend reads them,
// and the values one row per position.
type kvCache struct{ kT, v *tensor.Matrix }

// resetDecode empties the decode state and sizes every layer's cache for a
// sequence of up to rows positions.
func (ws *Workspace) resetDecode(layers, rows, dim int) {
	for len(ws.kv) < layers {
		ws.kv = append(ws.kv, kvCache{})
	}
	for l := range ws.kv[:layers] {
		ws.kv[l].kT = tensor.Grow(ws.kv[l].kT, dim, rows)
		ws.kv[l].v = tensor.Grow(ws.kv[l].v, rows, dim)
	}
	ws.decLen = 0
}

// cacheRows returns ws.kvNew pointed at rows [p, p+n) of the cache matrix m,
// so a matmul writes new value rows straight into the cache. The view
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

// ProbeFloats returns a length-n float64 scratch slice owned by ws, for the
// forward-only gradient probes that run on it (assign.ProbeExploreSPSA),
// valid until its next call. Contents are unspecified.
func (ws *Workspace) ProbeFloats(n int) []float64 {
	ws.probe = growFloats(ws.probe, n)
	return ws.probe
}

// growFloats returns a length-n float64 slice, reusing s's storage when its
// capacity suffices. When it does not, the new storage has room for twice
// s's capacity, so a buffer that sees slowly rising lengths (sequences of a
// varying length) reallocates a logarithmic number of times. Contents are
// unspecified; callers fully overwrite.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n, max(n, 2*cap(s)))
	}
	return s[:n]
}

// growBools is growFloats for []bool.
func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n, max(n, 2*cap(s)))
	}
	return s[:n]
}

// growInts is growFloats for []int.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n, max(n, 2*cap(s)))
	}
	return s[:n]
}
