package moe

import (
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
)

func testModel(t *testing.T, seed string) *Model {
	t.Helper()
	return MustNew(Uniform("clone-test", 24, 12, 24, 2, 4, 2, 32), tensor.Named(seed))
}

func modelsEqual(t *testing.T, a, b *Model) {
	t.Helper()
	if !a.Embed.Equal(b.Embed, 0) || !a.Head.Equal(b.Head, 0) {
		t.Fatal("embedding/head differ")
	}
	if len(a.Layers) != len(b.Layers) {
		t.Fatalf("layer counts differ: %d vs %d", len(a.Layers), len(b.Layers))
	}
	for l := range a.Layers {
		la, lb := a.Layers[l], b.Layers[l]
		if !la.Gate.Equal(lb.Gate, 0) || !la.Wq.Equal(lb.Wq, 0) || !la.Wk.Equal(lb.Wk, 0) || !la.Wv.Equal(lb.Wv, 0) {
			t.Fatalf("layer %d attention/gate weights differ", l)
		}
		if len(la.Experts) != len(lb.Experts) {
			t.Fatalf("layer %d expert counts differ", l)
		}
		for i := range la.Routing {
			if la.Routing[i] != lb.Routing[i] {
				t.Fatalf("layer %d routing differs at %d", l, i)
			}
		}
		for e := range la.Experts {
			ea, eb := la.Experts[e], lb.Experts[e]
			if !ea.W1.Equal(eb.W1, 0) || !ea.W2.Equal(eb.W2, 0) {
				t.Fatalf("layer %d expert %d weights differ", l, e)
			}
			if ea.Frozen != eb.Frozen {
				t.Fatalf("layer %d expert %d frozen flag differs", l, e)
			}
		}
	}
}

func TestCloneIntoMatchesClone(t *testing.T) {
	src := testModel(t, "clone-src")
	got := src.CloneInto(nil)
	modelsEqual(t, src, got)

	// Reuse path: populate dst with different weights, then CloneInto again.
	dst := testModel(t, "clone-dst")
	reused := src.CloneInto(dst)
	if reused != dst {
		t.Fatal("CloneInto allocated despite a matching shape")
	}
	modelsEqual(t, src, reused)

	// The copy must not alias the source.
	reused.Layers[0].Experts[0].W1.Set(0, 0, 1e9)
	if src.Layers[0].Experts[0].W1.At(0, 0) == 1e9 {
		t.Fatal("CloneInto aliased expert storage")
	}
	reused.Cfg.ExpertsPerLayer[0] = 99
	if src.Cfg.ExpertsPerLayer[0] == 99 {
		t.Fatal("CloneInto aliased ExpertsPerLayer")
	}
}

func TestCloneIntoShapeMismatchAllocates(t *testing.T) {
	src := testModel(t, "clone-src2")
	other := MustNew(Uniform("clone-other", 24, 12, 24, 2, 6, 2, 32), tensor.Named("clone-other"))
	got := src.CloneInto(other)
	if got == other {
		t.Fatal("CloneInto reused a mismatched-shape model")
	}
	modelsEqual(t, src, got)
}

func TestGradsReset(t *testing.T) {
	m := testModel(t, "grads-reset")
	var g *Grads
	g = g.Reset(m)
	if g == nil {
		t.Fatal("nil receiver did not allocate")
	}
	// Accumulate something, then reset: same object, zeroed.
	seq := []int{1, 2, 3, 4, 5}
	m.ForwardBackwardWS(nil, seq, nil, g, nil, -1)
	g2 := g.Reset(m)
	if g2 != g {
		t.Fatal("Reset reallocated for an unchanged layout")
	}
	for l := range g2.Experts {
		for e, eg := range g2.Experts[l] {
			if eg != nil && eg.Norm() != 0 {
				t.Fatalf("layer %d expert %d grads not zeroed", l, e)
			}
			if g2.TokenGradCount[l][e] != 0 {
				t.Fatalf("layer %d expert %d token counts not zeroed", l, e)
			}
		}
	}
	// A layout change reuses the accumulator too, reshaped like the new
	// model with no expert buffer handed out yet, as NewGrads leaves it.
	other := MustNew(Uniform("grads-other", 24, 12, 24, 2, 6, 2, 32), tensor.Named("grads-other"))
	if g.Reset(other) != g {
		t.Fatal("Reset reallocated across a layout change")
	}
	if len(g.Experts) != len(other.Layers) {
		t.Fatalf("Reset kept %d layers, want %d", len(g.Experts), len(other.Layers))
	}
	for l, layer := range other.Layers {
		if len(g.Experts[l]) != len(layer.Experts) || len(g.TokenGradCount[l]) != len(layer.Experts) {
			t.Fatalf("layer %d: Reset shaped %d experts, want %d", l, len(g.Experts[l]), len(layer.Experts))
		}
		for e, eg := range g.Experts[l] {
			if eg != nil || g.TokenGradCount[l][e] != 0 || g.TokenGradNorm[l][e] != 0 {
				t.Fatalf("layer %d expert %d: Reset left state behind", l, e)
			}
		}
	}
	// Pre-training accumulators (embedding/head) are never reused.
	pre := NewGrads(m, true)
	if pre.Reset(m) == pre {
		t.Fatal("Reset reused an embedding-carrying accumulator")
	}
}

// TestQuantizeMatchesQuantizedClone pins the in-place Quantize against a
// test-local oracle: a clone whose every quantized matrix is replaced by its
// materialised code matrix's reconstruction.
func TestQuantizeMatchesQuantizedClone(t *testing.T) {
	m := testModel(t, "quantize")
	want := m.CloneInto(nil)
	rt := func(mat *tensor.Matrix) { mat.CopyFrom(quant.Quantize(mat, quant.Bits4).Dequantize()) }
	rt(want.Embed)
	rt(want.Head)
	for _, layer := range want.Layers {
		rt(layer.Wq)
		rt(layer.Wk)
		rt(layer.Wv)
		rt(layer.Gate)
		for _, e := range layer.Experts {
			rt(e.W1)
			rt(e.W2)
		}
	}
	got := m.CloneInto(nil)
	Quantize(got, quant.Bits4)
	modelsEqual(t, want, got)
}
