package moe

import (
	"math"

	"repro/internal/tensor"
)

// Expert is a two-layer feed-forward network with a ReLU nonlinearity:
// y = ReLU(x·W1 + b1)·W2 + b2. It is the unit of selection, merging, and
// federated aggregation throughout the repository. Both its passes run by
// expert, inside the layer: the forward over all of the expert's routed
// tokens at once, four a kernel call (forwardRows, from Layer.moeBlock),
// and the backward over blocks of up to four routed tokens (backwardBlock,
// from Layer.Backward).
type Expert struct {
	W1 *tensor.Matrix // Dim × FFNDim
	B1 []float64      // FFNDim
	W2 *tensor.Matrix // FFNDim × Dim
	B2 []float64      // Dim

	// Frozen marks a non-tuning expert: it participates in forward and in
	// gradient propagation to earlier layers, but its own parameters are
	// never updated, so the backward pass computes no parameter gradients
	// for it (and skips it altogether once no earlier layer has a trainable
	// expert to propagate to).
	Frozen bool

	// MergedFrom lists the original expert indices folded into this expert
	// by the merging module; empty for original experts.
	MergedFrom []int
}

// NewExpert allocates an expert with Xavier-initialized weights.
func NewExpert(dim, ffn int, g *tensor.RNG) *Expert {
	e := &Expert{
		W1: tensor.NewMatrix(dim, ffn),
		B1: make([]float64, ffn),
		W2: tensor.NewMatrix(ffn, dim),
		B2: make([]float64, dim),
	}
	e.W1.XavierInit(g)
	e.W2.XavierInit(g)
	return e
}

// Clone returns a deep copy of the expert.
func (e *Expert) Clone() *Expert {
	c := &Expert{
		W1:     e.W1.Clone(),
		B1:     append([]float64(nil), e.B1...),
		W2:     e.W2.Clone(),
		B2:     append([]float64(nil), e.B2...),
		Frozen: e.Frozen,
	}
	if len(e.MergedFrom) > 0 {
		c.MergedFrom = append([]int(nil), e.MergedFrom...)
	}
	return c
}

// Params returns the expert's parameter count.
func (e *Expert) Params() int {
	return e.W1.Rows*e.W1.Cols + len(e.B1) + e.W2.Rows*e.W2.Cols + len(e.B2)
}

// FlattenTo appends all expert parameters to dst in a fixed order and
// returns the extended slice. Used for parameter sketches (clustering) and
// transport encoding.
func (e *Expert) FlattenTo(dst []float64) []float64 {
	dst = append(dst, e.W1.Data...)
	dst = append(dst, e.B1...)
	dst = append(dst, e.W2.Data...)
	dst = append(dst, e.B2...)
	return dst
}

// LoadFlat restores parameters from a slice written by FlattenTo.
func (e *Expert) LoadFlat(src []float64) {
	n := copy(e.W1.Data, src)
	src = src[n:]
	n = copy(e.B1, src)
	src = src[n:]
	n = copy(e.W2.Data, src)
	src = src[n:]
	copy(e.B2, src)
}

// forwardRows runs the expert on the rows of x named by rows: hidden
// receives their ReLU outputs, hs apart, and out their outputs, Dim apart,
// in the order of rows.
//
// Both sweeps are Axpy form — every output element accumulates its own
// terms in ascending order — and run on the tensor package's kernels, as
// does the clamp between them. hidden = ReLU(x·W1 + b1): the input is a
// layer-normed activation and essentially never zero, so the W1 sweep is
// dense. It takes the tokens four at a time, their rows gathered into
// ws.xBlk, through one tensor.MulRows from the bias, whose kernel runs the
// four tokens' chains side by side where AVX-512F runs; a last one to three
// tokens take one AxpyRows each. tensor.ReLU then clamps the negative
// pre-activations to +0 without a branch per unit, whose sign pattern would
// mispredict about half the time. out = hidden·W2 + b2 over the units the
// ReLU left open, one AxpyNonzeroRows per token: a closed unit must be
// skipped, not added as 0·w, because a +0 term added to a -0 bias changes
// its bits. Each token's bits are the per-token forward's (Expert.Forward,
// kept as the test oracle).
func (e *Expert) forwardRows(x *tensor.Matrix, rows []int, hidden []float64, hs int, out []float64, ws *Workspace) {
	ffn, dim := len(e.B1), len(e.B2)
	r := 0
	for ; r+4 <= len(rows); r += 4 {
		ws.xBlk = growFloats(ws.xBlk, 4*dim)
		for i, t := range rows[r : r+4] {
			copy(ws.xBlk[i*dim:(i+1)*dim], x.Row(t))
		}
		tensor.MulRows(hidden[r*hs:], hs, ws.xBlk, dim, e.W1.Data, ffn, e.B1, 4, dim, ffn)
	}
	for ; r < len(rows); r++ {
		h := hidden[r*hs : r*hs+ffn]
		copy(h, e.B1)
		tensor.AxpyRows(h, x.Row(rows[r]), e.W1.Data, ffn)
	}
	for r := range rows {
		h := hidden[r*hs : r*hs+ffn]
		tensor.ReLU(h)
		o := out[r*dim : (r+1)*dim]
		copy(o, e.B2)
		tensor.AxpyNonzeroRows(o, h, e.W2.Data, dim)
	}
}

// ExpertGrad accumulates gradients for one expert across a batch.
type ExpertGrad struct {
	W1 *tensor.Matrix
	B1 []float64
	W2 *tensor.Matrix
	B2 []float64
}

// NewExpertGrad allocates a zeroed gradient buffer shaped like e.
func NewExpertGrad(e *Expert) *ExpertGrad {
	return &ExpertGrad{
		W1: tensor.NewMatrix(e.W1.Rows, e.W1.Cols),
		B1: make([]float64, len(e.B1)),
		W2: tensor.NewMatrix(e.W2.Rows, e.W2.Cols),
		B2: make([]float64, len(e.B2)),
	}
}

// Zero clears the accumulated gradients.
func (g *ExpertGrad) Zero() {
	g.W1.Zero()
	g.W2.Zero()
	for i := range g.B1 {
		g.B1[i] = 0
	}
	for i := range g.B2 {
		g.B2[i] = 0
	}
}

// Norm returns the L2 norm over all accumulated gradient entries.
func (g *ExpertGrad) Norm() float64 {
	var s float64
	for _, v := range g.W1.Data {
		s += float64(v * v)
	}
	for _, v := range g.W2.Data {
		s += float64(v * v)
	}
	for _, v := range g.B1 {
		s += float64(v * v)
	}
	for _, v := range g.B2 {
		s += float64(v * v)
	}
	return math.Sqrt(s)
}

// backwardBlock backpropagates a block of up to four routed tokens through
// the expert. slots names them, in token order, by their slot in c (token
// slot/c.slots); dy holds their upstream gradients interleaved, token l in
// lane l (Dim × 4, tensor.DotRows4's layout), and lanes past len(slots) are
// set to +0 here. Parameter gradients are accumulated into g unless g is
// nil (a frozen expert), and the gradients with respect to the tokens'
// inputs are written, interleaved the same way, into sum (Dim × 4) unless
// sum is nil (nothing below consumes them).
//
// Both products through the weights are dot form — one accumulator per
// output, from +0, terms in ascending order — and run on tensor.DotRows4,
// each token in its own lane: dh = W2·dy, then zeroed where the token's
// ReLU gate is closed, and sum = W1·dh, which the layer adds into dx in one
// add per element. The gate is a conditional move per unit, not a branch:
// it runs for every expert, frozen ones included, and the ReLU pattern
// defeats branch prediction. The weight gradients are rank-1 updates, made
// only for a trainable expert, lane by lane in token order, each one tensor
// call that is one Axpy per row: dW2 row j += hidden[j]·dy for the open
// units (OuterNonzeroRows, branch-free over the ReLU pattern), dW1 row i +=
// x[i]·dh for every row (OuterRows). W1·dh and dW1 do not skip the zero
// entries of dh as a branch per term would; for finite x and weights that
// changes no bit, because such a term is ±0, and adding ±0 to an
// accumulator that started at +0 is a no-op — such an accumulator never
// holds -0.
func (e *Expert) backwardBlock(g *ExpertGrad, c *layerCache, slots []int, dy, sum []float64, ws *Workspace) {
	ffn := len(e.B1)
	dim := len(e.B2)
	for l := len(slots); l < 4; l++ {
		for d := 0; d < dim; d++ {
			dy[d*4+l] = 0
		}
	}
	ws.dhBlk = growFloats(ws.dhBlk, 4*ffn)
	dh := ws.dhBlk
	tensor.DotRows4(dh, dy, e.W2.Data, dim)
	// ReLU gate closed (hidden ±0): no gradient through the unit. The select
	// is on the bits, which the compiler lowers to a CMOV.
	for l, slot := range slots {
		for j, h := range c.hiddenAt(slot)[:ffn] {
			b := math.Float64bits(dh[j*4+l])
			if h == 0 {
				b = 0
			}
			dh[j*4+l] = math.Float64frombits(b)
		}
	}
	if g != nil {
		ws.dhTok = growFloats(ws.dhTok, ffn)
		dyl, dhl := ws.dyTok[:dim], ws.dhTok
		b1, b2 := g.B1[:ffn], g.B2[:dim]
		for l, slot := range slots {
			for d := range dyl {
				dyl[d] = dy[d*4+l]
			}
			for j := range dhl {
				dhl[j] = dh[j*4+l]
			}
			// dW2 += hiddenᵀ·dy over the open units
			tensor.OuterNonzeroRows(g.W2.Data, c.hiddenAt(slot)[:ffn], dyl, dim)
			// dB2 += dy; dB1 += dh; dW1 += xᵀ·dh
			for k, d := range dyl {
				b2[k] += d
			}
			for j, d := range dhl {
				b1[j] += d
			}
			tensor.OuterRows(g.W1.Data, c.xMid.Row(slot/c.slots), dhl, ffn)
		}
	}
	if sum != nil {
		tensor.DotRows4(sum, dh, e.W1.Data, ffn)
	}
}

// ApplySGD performs a plain SGD step with learning rate lr and then zeroes g.
// Frozen experts are left untouched (nothing accumulates into g for them).
func (e *Expert) ApplySGD(g *ExpertGrad, lr float64) {
	if e.Frozen {
		return
	}
	e.W1.AddScaled(g.W1, -lr)
	e.W2.AddScaled(g.W2, -lr)
	tensor.Axpy(-lr, g.B1, e.B1)
	tensor.Axpy(-lr, g.B2, e.B2)
	g.Zero()
}
