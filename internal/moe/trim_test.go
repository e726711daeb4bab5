package moe

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// untrimmedForwardBackward is the loss pass that computes every row: every
// layer runs its experts on every row, the head and the loss gradient cover
// the whole sequence, and the backward pass (untrimmedLayerBackward) visits
// every row whatever its gradient. It is the oracle ForwardBackwardWS, LossWS
// and LossSuffixWS, which compute only what the loss reads, are held to bit
// for bit. A nil grads returns the loss without a backward pass.
func untrimmedForwardBackward(m *Model, ws *Workspace, seq []int, mask []bool, grads *Grads) float64 {
	x := m.embedWS(ws, seq)
	caches := ws.cachesFor(len(m.Layers))
	for l, layer := range m.Layers {
		x = layer.Forward(l, x, caches[l], ws, nil, -1, 0, x.Rows)
	}
	normed := tensor.NewMatrix(x.Rows, m.Cfg.Dim)
	invStd := make([]float64, x.Rows)
	for t := range invStd {
		invStd[t] = layerNormRow(normed.Row(t), x.Row(t))
	}
	logits := tensor.NewMatrix(x.Rows, m.Head.Cols)
	ws.mul.MatMulInto(logits, normed, m.Head)
	dLogits := tensor.NewMatrix(logits.Rows, logits.Cols)
	loss, n := crossEntropy(logits, 0, seq, mask, dLogits, make([]float64, logits.Cols))
	if n == 0 || grads == nil {
		return loss
	}
	if grads.Head != nil {
		headGrad := tensor.NewMatrix(normed.Cols, dLogits.Cols)
		tensor.MatMulTransAInto(headGrad, normed, dLogits)
		addInto(grads.Head, headGrad)
	}
	dNormed := tensor.NewMatrix(dLogits.Rows, m.Head.Rows)
	ws.mul.MatMulTransBInto(dNormed, dLogits, m.Head)
	dX := tensor.NewMatrix(dNormed.Rows, dNormed.Cols)
	for t := 0; t < dX.Rows; t++ {
		layerNormBackward(dX.Row(t), dNormed.Row(t), normed.Row(t), invStd[t])
	}
	stop := 0
	if grads.Embed == nil {
		stop = m.lowestTrainableLayer()
	}
	for l := len(m.Layers) - 1; l >= stop; l-- {
		var dIn *tensor.Matrix
		if l > stop || grads.Embed != nil {
			dIn = tensor.NewMatrix(dX.Rows, dX.Cols)
		}
		untrimmedLayerBackward(m.Layers[l], l, caches[l], dX, dIn, ws, grads)
		dX = dIn
	}
	if grads.Embed != nil {
		for t, tok := range seq {
			row := grads.Embed.Row(tok)
			for d, v := range dX.Row(t) {
				row[d] += v
			}
		}
	}
	return loss
}

// untrimmedLayerBackward is Layer.Backward visiting every row: every routed
// token runs its experts' backward, and the LN2, attention and LN1 backward
// passes cover the whole sequence.
func untrimmedLayerBackward(l *Layer, layerIdx int, c *layerCache, dOut, dXIn *tensor.Matrix, ws *Workspace, grads *Grads) {
	T, D := dOut.Rows, dOut.Cols
	propagate := dXIn != nil
	dX1 := tensor.NewMatrix(T, D)
	dXMid := tensor.NewMatrix(T, D)
	dX1.CopyFrom(dOut)
	dyTok := make([]float64, D)
	for t := 0; t < T; t++ {
		dorow := dOut.Row(t)
		xt := c.xMid.Row(t)
		var dx []float64
		if propagate {
			dx = dXMid.Row(t)
		}
		i, experts := c.routes(t)
		for s, ei := range experts {
			ex := l.Experts[ei]
			if ex.Frozen && !propagate {
				continue
			}
			w := c.routedWeights[i+s]
			for d := 0; d < D; d++ {
				dyTok[d] = w * dorow[d]
			}
			var g *ExpertGrad
			if !ex.Frozen {
				grads.recordTokenGrad(layerIdx, ei, dyTok)
				g = grads.expertGrad(layerIdx, ei, ex)
			}
			ex.Backward(g, xt, c.hiddenAt(i+s), dyTok, dx, make([]float64, len(ex.B1)+D))
		}
	}
	if !propagate {
		return
	}
	for t := 0; t < T; t++ {
		layerNormBackward(dX1.Row(t), dXMid.Row(t), c.xMid.Row(t), c.invStd2[t])
	}
	dV := tensor.NewMatrix(T, D)
	tensor.MatMulTransAInto(dV, c.attnP, dX1)
	dXNorm := tensor.NewMatrix(T, D)
	ws.mul.MatMulTransBInto(dXNorm, dV, l.Wv)
	dXIn.CopyFrom(dX1)
	for t := 0; t < T; t++ {
		layerNormBackward(dXIn.Row(t), dXNorm.Row(t), c.xNorm.Row(t), c.invStd1[t])
	}
}

// trimMasks are the scoring patterns TestLossTrimBitIdentity covers for a
// length-T sequence: every position (nil), a prefix scored from row 0, a
// prompt followed by a completion (the GSM8K shape), a one-row completion,
// only row T−2, alternate rows, and nothing scored.
func trimMasks(T int) []namedMask {
	mk := func(f func(t int) bool) []bool {
		m := make([]bool, T)
		for t := range m {
			m[t] = f(t)
		}
		return m
	}
	return []namedMask{
		{"nil", nil},
		{"from-row-0", mk(func(t int) bool { return t < (T+1)/2 })},
		{"completion", mk(func(t int) bool { return t >= T/3 && t < T-1 })},
		{"one-row", mk(func(t int) bool { return t == T/2 })},
		{"only-T-2", mk(func(t int) bool { return t == T-2 })},
		{"alternate", mk(func(t int) bool { return t%2 == 1 })},
		{"none-scored", mk(func(int) bool { return false })},
		{"last-row-set", mk(func(t int) bool { return t == T-1 })}, // row T−1 predicts nothing
	}
}

type namedMask struct {
	name string
	mask []bool
}

// TestLossTrimBitIdentity holds the trimmed loss passes to the untrimmed
// oracle bit for bit, on both stand-ins, for an all-trainable model training
// its embedding and head (the pre-training pass) and a customized one with
// frozen experts: ForwardBackwardWS's loss, every gradient block (presence
// included), TokenGradNorm and TokenGradCount; LossWS; and LossSuffixWS at
// every split point. Sequences run longest first on one workspace, so every
// pass reuses buffers a longer pass left behind.
func TestLossTrimBitIdentity(t *testing.T) {
	for _, cfg := range []Config{SimConfigLLaMATrain(), SimConfigDeepSeekTrain()} {
		global := MustNew(cfg, tensor.Named("trim/"+cfg.Name))
		g := tensor.NewRNG(43)
		custom, err := Customize(global, randomPlan(cfg, g, func(int, int) float64 { return 0.3 }))
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []struct {
			name       string
			m          *Model
			trainEmbed bool
		}{{"trainable", global, true}, {"frozen", custom, false}} {
			t.Run(cfg.Name+"/"+v.name, func(t *testing.T) {
				ws, wsRef := NewWorkspace(), NewWorkspace()
				for _, T := range []int{cfg.MaxSeqLen, 23, 9, 3, 2, 1} {
					seq := wsSeq(g, cfg.VocabSize, T)
					for _, nm := range trimMasks(T) {
						name, mask := nm.name, nm.mask
						got, want := NewGrads(v.m, v.trainEmbed), NewGrads(v.m, v.trainEmbed)
						lossGot := v.m.ForwardBackwardWS(ws, seq, mask, got, nil, -1)
						lossWant := untrimmedForwardBackward(v.m, wsRef, seq, mask, want)
						where := fmt.Sprintf("T=%d mask %s", T, name)
						if math.Float64bits(lossGot) != math.Float64bits(lossWant) {
							t.Fatalf("%s: loss %v, untrimmed %v", where, lossGot, lossWant)
						}
						gradsEqual(t, where, got, want)
						if l := v.m.LossWS(ws, seq, mask); math.Float64bits(l) != math.Float64bits(lossWant) {
							t.Fatalf("%s: LossWS %v, untrimmed %v", where, l, lossWant)
						}
						for start := 0; start <= len(v.m.Layers); start++ {
							x := v.m.ForwardPrefixWS(ws, seq, start, nil, -1)
							if l := v.m.LossSuffixWS(ws, x, start, seq, mask); math.Float64bits(l) != math.Float64bits(lossWant) {
								t.Fatalf("%s: LossSuffixWS from layer %d %v, untrimmed %v", where, start, l, lossWant)
							}
						}
					}
				}
			})
		}
	}
}

// gradsEqual fails t unless got and want hold the same gradients bit for
// bit: every expert block (and whether it exists), the token-gradient
// counters, and the embedding/head blocks.
func gradsEqual(t *testing.T, where string, got, want *Grads) {
	t.Helper()
	if len(got.Experts) != len(want.Experts) {
		t.Fatalf("%s: %d gradient layers, want %d", where, len(got.Experts), len(want.Experts))
	}
	for l := range want.Experts {
		if len(got.Experts[l]) != len(want.Experts[l]) {
			t.Fatalf("%s: layer %d has %d gradient slots, want %d", where, l, len(got.Experts[l]), len(want.Experts[l]))
		}
		for e, og := range want.Experts[l] {
			eg := got.Experts[l][e]
			if math.Float64bits(got.TokenGradCount[l][e]) != math.Float64bits(want.TokenGradCount[l][e]) ||
				math.Float64bits(got.TokenGradNorm[l][e]) != math.Float64bits(want.TokenGradNorm[l][e]) {
				t.Fatalf("%s: layer %d expert %d: token-gradient counters %v/%v, want %v/%v", where, l, e,
					got.TokenGradCount[l][e], got.TokenGradNorm[l][e], want.TokenGradCount[l][e], want.TokenGradNorm[l][e])
			}
			if (eg == nil) != (og == nil) {
				t.Fatalf("%s: layer %d expert %d: gradient presence %v, want %v", where, l, e, eg != nil, og != nil)
			}
			if eg != nil && (!sameBits(eg.W1.Data, og.W1.Data) || !sameBits(eg.B1, og.B1) ||
				!sameBits(eg.W2.Data, og.W2.Data) || !sameBits(eg.B2, og.B2)) {
				t.Fatalf("%s: layer %d expert %d: gradient bits differ", where, l, e)
			}
		}
	}
	if (got.Embed == nil) != (want.Embed == nil) {
		t.Fatalf("%s: embedding gradient presence differs", where)
	}
	if want.Embed != nil && (!sameBits(got.Embed.Data, want.Embed.Data) || !sameBits(got.Head.Data, want.Head.Data)) {
		t.Fatalf("%s: embedding/head gradient bits differ", where)
	}
}

// layoutPlans are customize plans whose layouts differ from one to the
// next: per-layer expert counts change, experts swap between tuning and
// merged, and the sequence ends on the identity-like all-tuning plan and an
// all-merged one.
func layoutPlans(cfg Config, g *tensor.RNG) [][]LayerSpec {
	var plans [][]LayerSpec
	for _, p := range []float64{0.2, 0.8, 0.5, 0.1, 0.6} {
		plans = append(plans, randomPlan(cfg, g, func(int, int) float64 { return p }))
	}
	plans = append(plans,
		randomPlan(cfg, g, func(int, int) float64 { return 1 }),
		randomPlan(cfg, g, func(int, int) float64 { return 0 }),
		randomPlan(cfg, g, func(l, _ int) float64 { return float64(l%2) * 0.9 }))
	return plans
}

// TestCustomizeIntoWarmModel builds a run of differently laid-out plans
// into one warm model and holds each result to a fresh Customize byte for
// byte (EncodeBytes), checks that the warm model and its experts were reused
// rather than reallocated, and that a spec error leaves the warm model as it
// was.
func TestCustomizeIntoWarmModel(t *testing.T) {
	for _, cfg := range []Config{SimConfigLLaMATrain(), SimConfigDeepSeekTrain()} {
		global := MustNew(cfg, tensor.Named("customize-into/"+cfg.Name))
		g := tensor.NewRNG(44)
		var warm *Model
		for i, specs := range layoutPlans(cfg, g) {
			var before []*Expert
			if warm != nil {
				for _, layer := range warm.Layers {
					before = append(before, layer.Experts...)
				}
			}
			got, err := CustomizeInto(warm, global, specs)
			if err != nil {
				t.Fatal(err)
			}
			if warm != nil && got != warm {
				t.Fatalf("%s plan %d: CustomizeInto did not build into the warm model", cfg.Name, i)
			}
			warm = got
			fresh, err := Customize(global, specs)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encode(t, warm), encode(t, fresh)) {
				t.Fatalf("%s plan %d: warm CustomizeInto encodes differently from a fresh Customize", cfg.Name, i)
			}
			reused := make(map[*Expert]bool, len(before))
			for _, e := range before {
				reused[e] = true
			}
			n := 0
			for _, layer := range warm.Layers {
				for _, e := range layer.Experts {
					if reused[e] {
						n++
					}
				}
			}
			if len(before) > 0 && n == 0 {
				t.Fatalf("%s plan %d: no expert of the warm model was reused", cfg.Name, i)
			}
		}
		enc := encode(t, warm)
		bad := layoutPlans(cfg, g)[0]
		bad[len(bad)-1].Tuning = append(bad[len(bad)-1].Tuning, 0) // listed twice or out of place
		if _, err := CustomizeInto(warm, global, bad); err == nil {
			t.Fatalf("%s: a spec listing an expert twice was accepted", cfg.Name)
		}
		if !bytes.Equal(encode(t, warm), enc) {
			t.Fatalf("%s: a rejected spec changed the warm model", cfg.Name)
		}
	}
}

// encode is m.EncodeBytes for a model that must encode.
func encode(t *testing.T, m *Model) []byte {
	t.Helper()
	b, err := m.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGradsResetAcrossLayouts runs training passes on a run of differently
// laid-out customized models with one accumulator reused through Reset and
// holds every pass's gradients to a fresh NewGrads bit for bit, presence of
// each expert block included.
func TestGradsResetAcrossLayouts(t *testing.T) {
	cfg := SimConfigLLaMATrain()
	global := MustNew(cfg, tensor.Named("grads-layouts"))
	g := tensor.NewRNG(45)
	ws := NewWorkspace()
	var reused *Grads
	var local *Model
	for i, specs := range layoutPlans(cfg, g) {
		var err error
		if local, err = CustomizeInto(local, global, specs); err != nil {
			t.Fatal(err)
		}
		reused = reused.Reset(local)
		fresh := NewGrads(local, false)
		for k := range 3 {
			seq := wsSeq(g, cfg.VocabSize, 12+5*k)
			mask := trimMasks(len(seq))[2].mask // completion
			local.ForwardBackwardWS(ws, seq, mask, reused, nil, -1)
			local.ForwardBackwardWS(ws, seq, mask, fresh, nil, -1)
		}
		gradsEqual(t, fmt.Sprintf("plan %d", i), reused, fresh)
	}
}
