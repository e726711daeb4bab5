package moe

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// referenceLayerForward is Layer.Forward with its attention in the full-row
// form: every masked score set to −Inf, a T-wide softmax, and one T×T
// MatMulInto for the value sum. It is the oracle the live-prefix attention
// of Forward (attend) is held to bit for bit.
func referenceLayerForward(l *Layer, x *tensor.Matrix, c *layerCache, ws *Workspace) *tensor.Matrix {
	T, D := x.Rows, x.Cols
	c.xNorm = tensor.Grow(c.xNorm, T, D)
	c.invStd1 = growFloats(c.invStd1, T)
	for t := 0; t < T; t++ {
		c.invStd1[t] = layerNormRow(c.xNorm.Row(t), x.Row(t))
	}
	ws.q = tensor.Grow(ws.q, T, D)
	k := tensor.NewMatrix(T, D)
	ws.v = tensor.Grow(ws.v, T, D)
	ws.mul.MatMulInto(ws.q, c.xNorm, l.Wq)
	ws.mul.MatMulInto(k, c.xNorm, l.Wk)
	ws.mul.MatMulInto(ws.v, c.xNorm, l.Wv)
	scale := 1 / math.Sqrt(float64(D))
	c.attnP = tensor.Grow(c.attnP, T, T)
	for t := 0; t < T; t++ {
		row := c.attnP.Row(t)
		dotRows(row[:t+1], ws.q.Row(t), k.Data, D)
		for u := 0; u <= t; u++ {
			row[u] *= scale
		}
		for u := t + 1; u < T; u++ {
			row[u] = math.Inf(-1)
		}
		tensor.Softmax(row, row)
	}
	ws.attnOut = tensor.Grow(ws.attnOut, T, D)
	ws.mul.MatMulInto(ws.attnOut, c.attnP, ws.v)
	c.x1 = tensor.Grow(c.x1, T, D)
	c.x1.CopyFrom(x)
	addInto(c.x1, ws.attnOut)
	return l.moeBlock(-1, c, ws, nil, -1, 0, T)
}

// addInto adds src into dst element by element, in a plain scalar loop, so
// the reference oracles sum residuals without the Axpy kernel the model
// uses.
func addInto(dst, src *tensor.Matrix) {
	for i, v := range src.Data {
		dst.Data[i] += v
	}
}

// referenceForwardBackward is ForwardBackwardWS with every layer's forward
// pass run by referenceLayerForward.
func referenceForwardBackward(m *Model, ws *Workspace, seq []int, mask []bool, grads *Grads) float64 {
	x := m.embedWS(ws, seq)
	caches := ws.cachesFor(len(m.Layers))
	for l, layer := range m.Layers {
		x = referenceLayerForward(layer, x, caches[l], ws)
	}
	return m.lossBackward(ws, m.headLogits(ws, x, 0, x.Rows), seq, mask, grads)
}

// TestCausalAttentionBitIdentity holds Forward's live-prefix attention to
// the full-row form bit for bit, on both stand-ins, at every sequence length
// 1–MaxSeqLen: each layer's output and every attention probability row (+0
// above the diagonal included), then ForwardBackwardWS's loss and gradients
// on an all-trainable model (embedding and head training, so the dL/dx chain
// runs through every layer's attention backward) and on a customized one
// with frozen experts. Lengths run longest first, so every shorter pass
// reuses workspace buffers still holding a longer pass's probabilities.
func TestCausalAttentionBitIdentity(t *testing.T) {
	for _, cfg := range []Config{SimConfigLLaMATrain(), SimConfigDeepSeekTrain()} {
		global := MustNew(cfg, tensor.Named("attention/"+cfg.Name))
		g := tensor.NewRNG(41)
		custom, err := Customize(global, randomPlan(cfg, g, func(int, int) float64 { return 0.3 }))
		if err != nil {
			t.Fatal(err)
		}

		t.Run(cfg.Name+"/layers", func(t *testing.T) {
			ws, wsRef := NewWorkspace(), NewWorkspace()
			var c, cRef layerCache
			x := tensor.NewMatrix(cfg.MaxSeqLen, cfg.Dim)
			for T := cfg.MaxSeqLen; T >= 1; T-- {
				xt := &tensor.Matrix{Rows: T, Cols: cfg.Dim, Data: x.Data[:T*cfg.Dim]}
				for i := range xt.Data {
					xt.Data[i] = 3 * g.Norm()
				}
				for li, layer := range global.Layers {
					got := layer.Forward(li, xt, &c, ws, nil, -1, 0, T)
					want := referenceLayerForward(layer, xt, &cRef, wsRef)
					if !sameBits(got.Data, want.Data) {
						t.Fatalf("T=%d layer %d: output bits differ from the full-row form", T, li)
					}
					for r := 0; r < T; r++ {
						if !sameBits(c.attnP.Row(r), cRef.attnP.Row(r)) {
							t.Fatalf("T=%d layer %d: attention row %d is %v, full-row form %v", T, li, r, c.attnP.Row(r), cRef.attnP.Row(r))
						}
					}
				}
			}
		})

		for _, v := range []struct {
			name       string
			m          *Model
			trainEmbed bool
		}{{"trainable", global, true}, {"frozen", custom, false}} {
			t.Run(fmt.Sprintf("%s/%s", cfg.Name, v.name), func(t *testing.T) {
				ws, wsRef := NewWorkspace(), NewWorkspace()
				got, want := NewGrads(v.m, v.trainEmbed), NewGrads(v.m, v.trainEmbed)
				for T := cfg.MaxSeqLen; T >= 1; T-- {
					seq := wsSeq(g, cfg.VocabSize, T)
					var mask []bool
					if T%3 == 0 {
						mask = make([]bool, T)
						for i := range mask {
							mask[i] = i%2 == 0
						}
					}
					lossGot := v.m.ForwardBackwardWS(ws, seq, mask, got, nil, -1)
					lossWant := referenceForwardBackward(v.m, wsRef, seq, mask, want)
					if math.Float64bits(lossGot) != math.Float64bits(lossWant) {
						t.Fatalf("T=%d: loss %v, full-row form %v", T, lossGot, lossWant)
					}
				}
				trained := 0
				for l := range got.Experts {
					for e, eg := range got.Experts[l] {
						og := want.Experts[l][e]
						if got.TokenGradCount[l][e] != want.TokenGradCount[l][e] ||
							math.Float64bits(got.TokenGradNorm[l][e]) != math.Float64bits(want.TokenGradNorm[l][e]) {
							t.Fatalf("layer %d expert %d: token-gradient counters differ from the full-row form", l, e)
						}
						if (eg == nil) != (og == nil) {
							t.Fatalf("layer %d expert %d: gradient presence %v, full-row form %v", l, e, eg != nil, og != nil)
						}
						if eg == nil {
							continue
						}
						trained++
						if !sameBits(eg.W1.Data, og.W1.Data) || !sameBits(eg.B1, og.B1) ||
							!sameBits(eg.W2.Data, og.W2.Data) || !sameBits(eg.B2, og.B2) {
							t.Fatalf("layer %d expert %d: gradient bits differ from the full-row form", l, e)
						}
					}
				}
				if trained == 0 {
					t.Fatal("no expert was trained; the comparison is vacuous")
				}
				if v.trainEmbed && (!sameBits(got.Embed.Data, want.Embed.Data) || !sameBits(got.Head.Data, want.Head.Data)) {
					t.Fatal("embedding/head gradient bits differ from the full-row form")
				}
			})
		}
	}
}
