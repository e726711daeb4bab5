package moe

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// Backward backpropagates one token through the expert given the input x,
// the cached ReLU output hidden, and the upstream gradient dy (length Dim).
// It has two outputs and computes each only when asked: parameter gradients
// are accumulated into g unless g is nil (a frozen expert), and the gradient
// with respect to x is accumulated into dx (length Dim) unless dx is nil
// (nothing below consumes it). scratch is caller-provided, of length at
// least FFNDim+Dim; its contents on entry are irrelevant.
//
// It is the per-token expert backward Layer.Backward ran before it took its
// routed tokens by expert, four at a time (Expert.backwardBlock), and the
// oracle of that form: untrimmedLayerBackward makes one call per routed
// token. Both products through the weights are dotRows: dh = W2·dy,
// then zeroed where the ReLU gate is closed, and dx += W1·dh, summed in
// scratch and then added, so each dx[i] takes its whole sum in one add. The
// weight gradients are dW2 row j += hidden[j]·dy for the open units and
// dW1 row i += x[i]·dh for every row.
func (e *Expert) Backward(g *ExpertGrad, x, hidden, dy, dx, scratch []float64) {
	ffn := len(e.B1)
	dim := len(e.B2)
	dy = dy[:dim]
	hidden = hidden[:ffn]
	dh := scratch[:ffn]
	dotRows(dh, dy, e.W2.Data, dim)
	for j, h := range hidden {
		b := math.Float64bits(dh[j])
		if h == 0 {
			b = 0
		}
		dh[j] = math.Float64frombits(b)
	}
	if g != nil {
		tensor.OuterNonzeroRows(g.W2.Data, hidden, dy, dim)
		b2 := g.B2[:dim]
		for k, d := range dy {
			b2[k] += d
		}
		b1 := g.B1[:ffn]
		for j, d := range dh {
			b1[j] += d
		}
		tensor.OuterRows(g.W1.Data, x, dh, ffn)
	}
	if dx == nil {
		return
	}
	sum := scratch[ffn : ffn+len(x)]
	dotRows(sum, dh, e.W1.Data, ffn)
	dx = dx[:len(x)]
	for i, s := range sum {
		dx[i] += s
	}
}

// dotRows writes W·x into y, one tensor.Dot per row: y[j] is the dot
// product of x with row j of W, which starts at w[j·stride].
func dotRows(y, x, w []float64, stride int) {
	for j := range y {
		y[j] = tensor.Dot(w[j*stride:j*stride+len(x)], x)
	}
}

// routeCounts overwrites c's routing so that token t takes per[t] distinct
// experts, in a random slot order, and expert e exactly counts[e] tokens:
// each slot takes the expert with the most tokens still to place, with a
// random positive gate weight. It reports whether every count was placed.
func routeCounts(c *layerCache, counts, per []int, g *tensor.RNG) bool {
	rem := append([]int(nil), counts...)
	for t, n := range per {
		i := t * c.slots
		c.nRouted[t] = n
		for s := 0; s < n; s++ {
			best := -1
			for e, r := range rem {
				if r > 0 && (best < 0 || r > rem[best]) && !slices.Contains(c.routedExperts[i:i+s], e) {
					best = e
				}
			}
			if best < 0 {
				return false
			}
			rem[best]--
			c.routedExperts[i+s] = best
			c.routedWeights[i+s] = 0.1 + g.Float64()
		}
		ex := c.routedExperts[i : i+n]
		for s := n - 1; s > 0; s-- {
			r := g.Intn(s + 1)
			ex[s], ex[r] = ex[r], ex[s]
		}
	}
	for _, r := range rem {
		if r != 0 {
			return false
		}
	}
	return true
}

// repeatInt is n copies of v.
func repeatInt(n, v int) []int {
	return slices.Repeat([]int{v}, n)
}

// layerGrads is an empty gradient accumulator for a one-layer model of l.
func layerGrads(l *Layer) *Grads {
	n := len(l.Experts)
	return &Grads{
		Experts:        [][]*ExpertGrad{make([]*ExpertGrad, n)},
		TokenGradNorm:  [][]float64{make([]float64, n)},
		TokenGradCount: [][]float64{make([]float64, n)},
	}
}

// TestLayerBackwardByExpertBitIdentity holds Layer.Backward, which runs the
// expert products by expert over blocks of four routed tokens, to the
// per-token pass — untrimmedLayerBackward, one Expert.Backward per routed
// token — bit for bit: every gradient block (presence included),
// TokenGradNorm, TokenGradCount and dXIn. It covers both stand-ins' shapes
// at top-2 routing, and the DeepSeek one at top-3, where a token's dx sums
// three terms and their order shows in the bits; frozen, trainable and
// mixed experts; a nil dXIn; rows of +0 output gradient, and every row +0;
// merged routing, two original indices onto one expert, so that tokens
// route to fewer experts than TopK; and routing set so that the experts
// take 0, 1, 4, 5 and 9 tokens among others — empty, single, a full block,
// a block and one, and two blocks and one. Each case runs two backward
// passes into the same gradients on one workspace, the second on a shorter
// sequence.
func TestLayerBackwardByExpertBitIdentity(t *testing.T) {
	cases := []struct {
		cfg    Config
		topK   int
		counts []int // routing=counts: tokens per expert
		per    []int // routing=counts: experts per token
	}{
		{SimConfigLLaMATrain(), 2, []int{0, 1, 4, 5, 9, 5}, append(repeatInt(10, 2), repeatInt(4, 1)...)},
		{SimConfigDeepSeekTrain(), 2, []int{0, 1, 4, 5, 9, 5}, append(repeatInt(10, 2), repeatInt(4, 1)...)},
		{SimConfigDeepSeekTrain(), 3, []int{0, 1, 4, 5, 9, 5, 6}, slices.Concat(repeatInt(6, 3), repeatInt(4, 2), repeatInt(4, 1))},
	}
	for _, lc := range cases {
		cfg := lc.cfg
		T := len(lc.per)
		g := tensor.NewRNG(53)
		base := NewLayer(cfg.Dim, cfg.FFNDim, len(lc.counts)+1, lc.topK, g)
		base.Experts = base.Experts[:len(lc.counts)]
		base.Routing[len(lc.counts)] = 2 // the last original index merged into expert 2
		for _, frozen := range []string{"trainable", "frozen", "mixed"} {
			l := base.Clone()
			for e, ex := range l.Experts {
				ex.Frozen = frozen == "frozen" || (frozen == "mixed" && e%2 == 1)
			}
			for _, routing := range []string{"routed", "counts"} {
				for _, rows := range []string{"live", "zero-rows", "all-zero"} {
					for _, propagate := range []bool{true, false} {
						name := fmt.Sprintf("%s/top%d/%s/%s/%s/propagate=%v", cfg.Name, lc.topK, frozen, routing, rows, propagate)
						t.Run(name, func(t *testing.T) {
							ws, wsRef := NewWorkspace(), NewWorkspace()
							got, want := layerGrads(l), layerGrads(l)
							for pass, n := range []int{T, T - 5} {
								c := &layerCache{}
								x := tensor.NewMatrix(n, cfg.Dim)
								x.RandInit(g, 1)
								l.Forward(0, x, c, ws, nil, -1, 0, n)
								if routing == "counts" && pass == 0 && !routeCounts(c, lc.counts, lc.per, g) {
									t.Fatal("could not place the routing counts")
								}
								dOut := tensor.NewMatrix(n, cfg.Dim)
								dOut.RandInit(g, 1)
								dOut.Set(1, 2, math.Copysign(0, -1)) // a −0 keeps a row live
								for r := 0; r < n; r++ {
									if rows == "all-zero" || (rows == "zero-rows" && (r == 0 || r == 3 || r == n-1)) {
										clear(dOut.Row(r))
									}
								}
								var dIn, dInRef *tensor.Matrix
								if propagate {
									dIn, dInRef = stalePattern(n, cfg.Dim), tensor.NewMatrix(n, cfg.Dim)
								}
								l.Backward(0, c, dOut, dIn, ws, got)
								untrimmedLayerBackward(l, 0, c, dOut, dInRef, wsRef, want)
								where := fmt.Sprintf("pass %d", pass)
								gradsEqual(t, where, got, want)
								if propagate && !sameBits(dIn.Data, dInRef.Data) {
									t.Fatalf("%s: dXIn bits differ from the per-token pass", where)
								}
							}
						})
					}
				}
			}
		}
	}
}

// stalePattern is a rows×cols matrix of garbage that Backward must fully
// overwrite.
func stalePattern(rows, cols int) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = 123
	}
	return m
}

// BenchmarkLayerBackward is one 48-token sequence's backward through the
// first layer of each stand-in (dim 24; FFN 48 and 8 experts, FFN 64 and 16
// experts), with dXIn wanted, as below a trainable layer: expert=frozen has
// every expert frozen — the gates and the two DotRows4 products per block
// of four tokens alone, what most experts of a flux participant run — and
// expert=trainable every expert trainable, adding the weight gradients. It
// replaces the per-token BenchmarkExpertBackward.
func BenchmarkLayerBackward(b *testing.B) {
	const T = 48
	for _, cfg := range []Config{SimConfigLLaMATrain(), SimConfigDeepSeekTrain()} {
		for _, kind := range []string{"frozen", "trainable"} {
			b.Run(fmt.Sprintf("model=%s/expert=%s", cfg.Name, kind), func(b *testing.B) {
				m := MustNew(cfg, tensor.Named("bench-layer-backward"))
				l := m.Layers[0]
				for _, ex := range l.Experts {
					ex.Frozen = kind == "frozen"
				}
				g := tensor.NewRNG(12)
				x := tensor.NewMatrix(T, cfg.Dim)
				x.RandInit(g, 1)
				dOut := tensor.NewMatrix(T, cfg.Dim)
				dOut.RandInit(g, 1e-3) // small: the gradients stay far from overflow
				dIn := tensor.NewMatrix(T, cfg.Dim)
				ws, c, grads := NewWorkspace(), &layerCache{}, NewGrads(m, false)
				l.Forward(0, x, c, ws, nil, -1, 0, T)
				l.Backward(0, c, dOut, dIn, ws, grads)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					l.Backward(0, c, dOut, dIn, ws, grads)
				}
			})
		}
	}
}
