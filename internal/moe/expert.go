package moe

import (
	"math"

	"repro/internal/tensor"
)

// Expert is a two-layer feed-forward network with a ReLU nonlinearity:
// y = ReLU(x·W1 + b1)·W2 + b2. It is the unit of selection, merging, and
// federated aggregation throughout the repository.
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

// Forward computes the expert output for a single token vector x, storing
// the hidden pre-activation in hidden (length FFNDim) for backward reuse.
// out must have length Dim.
func (e *Expert) Forward(x, hidden, out []float64) {
	ffn := len(e.B1)
	dim := len(e.B2)
	// hidden = ReLU(x·W1 + b1). The input is a layer-normed activation and
	// essentially never zero, so the W1 sweep is unconditionally dense: one
	// AxpyRows over every row of W1.
	hidden = hidden[:ffn]
	copy(hidden, e.B1)
	tensor.AxpyRows(hidden, x, e.W1.Data, ffn)
	for j := range hidden {
		if hidden[j] < 0 {
			hidden[j] = 0
		}
	}
	// out = hidden·W2 + b2, skipping the units the ReLU closed. A dense
	// AxpyRows would add their 0·w terms, and a +0.0 added to a -0.0 bias
	// changes its bits, so this sweep stays one Axpy per open unit. Rows
	// are addressed by running offset into the flat weight data.
	out = out[:dim]
	copy(out, e.B2)
	w2 := e.W2.Data
	off := 0
	for _, h := range hidden {
		o := off
		off += dim
		if h == 0 {
			continue
		}
		tensor.Axpy(h, w2[o:o+dim], out)
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
		s += v * v
	}
	for _, v := range g.W2.Data {
		s += v * v
	}
	for _, v := range g.B1 {
		s += v * v
	}
	for _, v := range g.B2 {
		s += v * v
	}
	return math.Sqrt(s)
}

// Backward backpropagates one token through the expert given the input x,
// the cached ReLU output hidden, and the upstream gradient dy (length Dim).
// It has two outputs and computes each only when asked: parameter gradients
// are accumulated into g unless g is nil (a frozen expert), and the gradient
// with respect to x is accumulated into dx (length Dim) unless dx is nil
// (nothing below consumes it). Whatever is computed is bit-identical to what
// the full pass computes. dh is caller-provided scratch of length FFNDim;
// its contents on entry are irrelevant (every element is written or
// explicitly zeroed).
func (e *Expert) Backward(g *ExpertGrad, x, hidden, dy, dx, dh []float64) {
	if g == nil {
		e.backwardInput(x, hidden, dy, dx, dh)
		return
	}
	ffn := len(e.B1)
	dim := len(e.B2)
	// dB2 += dy; dW2 += hiddenᵀ·dy
	dy = dy[:dim]
	b2 := g.B2[:dim]
	for k, d := range dy {
		b2[k] += d
	}
	dh = dh[:ffn]
	w2 := e.W2.Data
	gw2all := g.W2.Data
	off := 0
	for j, h := range hidden[:ffn] {
		o := off
		off += dim
		if h == 0 {
			dh[j] = 0
			continue // ReLU gate closed: no gradient through this unit
		}
		w2row := w2[o : o+dim]
		gw2 := gw2all[o : o+dim]
		var s float64
		for k, d := range dy {
			gw2[k] += h * d
			s += w2row[k] * d
		}
		dh[j] = s
	}
	// dB1 += dh; dW1 += xᵀ·dh; dx += dh·W1ᵀ
	b1 := g.B1[:ffn]
	for j, d := range dh {
		b1[j] += d
	}
	w1 := e.W1.Data
	gw1all := g.W1.Data
	off = 0
	if dx == nil {
		for _, xv := range x {
			gw1 := gw1all[off : off+ffn]
			off += ffn
			for j, d := range dh {
				if d == 0 {
					continue
				}
				gw1[j] += xv * d
			}
		}
		return
	}
	dx = dx[:len(x)]
	for i, xv := range x {
		w1row := w1[off : off+ffn]
		gw1 := gw1all[off : off+ffn]
		off += ffn
		var s float64
		for j, d := range dh {
			if d == 0 {
				continue
			}
			gw1[j] += xv * d
			s += w1row[j] * d
		}
		dx[i] += s
	}
}

// backwardInput is Backward for a frozen expert: the same dh and dx loops
// (single accumulator, ascending index, closed gates skipped) without the
// parameter-gradient stores.
func (e *Expert) backwardInput(x, hidden, dy, dx, dh []float64) {
	ffn := len(e.B1)
	dim := len(e.B2)
	dy = dy[:dim]
	dh = dh[:ffn]
	w2 := e.W2.Data
	off := 0
	for j, h := range hidden[:ffn] {
		o := off
		off += dim
		if h == 0 {
			dh[j] = 0
			continue
		}
		w2row := w2[o : o+dim]
		var s float64
		for k, d := range dy {
			s += w2row[k] * d
		}
		dh[j] = s
	}
	w1 := e.W1.Data
	dx = dx[:len(x)]
	off = 0
	for i := range x {
		w1row := w1[off : off+ffn]
		off += ffn
		var s float64
		for j, d := range dh {
			if d == 0 {
				continue
			}
			s += w1row[j] * d
		}
		dx[i] += s
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
	for i, d := range g.B1 {
		e.B1[i] -= lr * d
	}
	for i, d := range g.B2 {
		e.B2[i] -= lr * d
	}
	g.Zero()
}
