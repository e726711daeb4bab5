package moe

import (
	"testing"

	"repro/internal/tensor"
)

func workspaceTestModel(t *testing.T) *Model {
	t.Helper()
	cfg := Uniform("ws-test", 32, 16, 24, 3, 6, 2, 32)
	return MustNew(cfg, tensor.NewRNG(21))
}

func wsSeq(g *tensor.RNG, vocab, n int) []int {
	seq := make([]int, n)
	for i := range seq {
		seq[i] = g.Intn(vocab)
	}
	return seq
}

// TestForwardBackwardWSBitIdentity pins a warm, reused workspace bit-identical
// to a fresh one (nil): same losses, same accumulated gradients, across
// repeated reuse of one workspace (stale buffer contents must not leak into
// results) and across varying sequence lengths (shrinking reuse).
func TestForwardBackwardWSBitIdentity(t *testing.T) {
	m := workspaceTestModel(t)
	g := tensor.NewRNG(5)
	ws := NewWorkspace()
	lens := []int{20, 32, 7, 1, 32, 13}
	for trial, n := range lens {
		seq := wsSeq(g, m.Cfg.VocabSize, n)
		var mask []bool
		if trial%2 == 1 && n > 2 {
			mask = make([]bool, n)
			for i := range mask {
				mask[i] = i%2 == 0
			}
		}
		gRef := NewGrads(m, false)
		gWS := NewGrads(m, false)
		lossRef := m.ForwardBackwardWS(nil, seq, mask, gRef, nil, -1)
		lossWS := m.ForwardBackwardWS(ws, seq, mask, gWS, nil, -1)
		if lossRef != lossWS {
			t.Fatalf("trial %d: loss %v (fresh) != %v (reused ws)", trial, lossRef, lossWS)
		}
		for l := range gRef.Experts {
			for e, eg := range gRef.Experts[l] {
				wg := gWS.Experts[l][e]
				if (eg == nil) != (wg == nil) {
					t.Fatalf("trial %d: grad presence mismatch at layer %d expert %d", trial, l, e)
				}
				if eg == nil {
					continue
				}
				if !eg.W1.Equal(wg.W1, 0) || !eg.W2.Equal(wg.W2, 0) {
					t.Fatalf("trial %d: expert grad bits differ at layer %d expert %d", trial, l, e)
				}
			}
		}
		// The grads-nil (loss only) call must also be insensitive to reuse.
		if lossNil := m.ForwardBackwardWS(ws, seq, mask, nil, nil, -1); lossNil != lossRef {
			t.Fatalf("trial %d: grads-nil loss %v != %v", trial, lossNil, lossRef)
		}
	}
}

// TestForwardWSBitIdentity pins inference and stats recording on a warm,
// reused workspace against a fresh one (nil).
func TestForwardWSBitIdentity(t *testing.T) {
	m := workspaceTestModel(t)
	g := tensor.NewRNG(6)
	ws := NewWorkspace()
	for trial := 0; trial < 4; trial++ {
		seq := wsSeq(g, m.Cfg.VocabSize, 5+7*trial)
		sRef := NewActivationStats(m.Cfg, true)
		sWS := NewActivationStats(m.Cfg, true)
		ref := m.ForwardWS(nil, seq, sRef, trial)
		got := m.ForwardWS(ws, seq, sWS, trial)
		if !ref.Equal(got, 0) {
			t.Fatalf("trial %d: logits differ", trial)
		}
		for l := range sRef.Counts {
			for e := range sRef.Counts[l] {
				if sRef.Counts[l][e] != sWS.Counts[l][e] || sRef.AttnSum[l][e] != sWS.AttnSum[l][e] {
					t.Fatalf("trial %d: stats differ at layer %d expert %d", trial, l, e)
				}
			}
		}
	}
}

// TestPrefixSuffixBitIdentity pins ForwardPrefixWS + LossSuffixWS against
// LossWS at every split point, including repeated suffix evaluations off one
// prefix (the prefix activation must survive suffix passes untouched).
func TestPrefixSuffixBitIdentity(t *testing.T) {
	m := workspaceTestModel(t)
	g := tensor.NewRNG(9)
	ws := NewWorkspace()
	seq := wsSeq(g, m.Cfg.VocabSize, 17)
	mask := make([]bool, len(seq))
	for i := range mask {
		mask[i] = i%3 != 0
	}
	want := m.LossWS(nil, seq, mask)
	for stop := 0; stop <= len(m.Layers); stop++ {
		x := m.ForwardPrefixWS(ws, seq, stop)
		for rep := 0; rep < 3; rep++ {
			if got := m.LossSuffixWS(ws, x, stop, seq, mask); got != want {
				t.Fatalf("split %d rep %d: loss %v != %v", stop, rep, got, want)
			}
		}
	}
}

// TestForwardBackwardZeroAllocs asserts the tentpole contract: with a warm
// workspace and warm gradient buffers, a full forward/backward pass performs
// zero heap allocations.
func TestForwardBackwardZeroAllocs(t *testing.T) {
	m := workspaceTestModel(t)
	g := tensor.NewRNG(7)
	seq := wsSeq(g, m.Cfg.VocabSize, 32)
	ws := NewWorkspace()
	grads := NewGrads(m, false)
	// Warm up: grow every workspace buffer and lazily-allocated expert grad
	// to its steady-state shape.
	m.ForwardBackwardWS(ws, seq, nil, grads, nil, -1)
	m.ForwardBackwardWS(ws, seq, nil, nil, nil, -1)

	if n := testing.AllocsPerRun(10, func() {
		m.ForwardBackwardWS(ws, seq, nil, grads, nil, -1)
	}); n != 0 {
		t.Fatalf("warm ForwardBackwardWS allocates %v times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() {
		m.ForwardBackwardWS(ws, seq, nil, nil, nil, -1)
	}); n != 0 {
		t.Fatalf("warm grads-nil ForwardBackwardWS allocates %v times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() {
		m.ForwardWS(ws, seq, nil, -1)
	}); n != 0 {
		t.Fatalf("warm ForwardWS allocates %v times per run, want 0", n)
	}
}
