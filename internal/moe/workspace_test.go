package moe

import (
	"math"
	"slices"
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
		x := m.ForwardPrefixWS(ws, seq, stop, nil, -1)
		for rep := 0; rep < 3; rep++ {
			if got := m.LossSuffixWS(ws, x, stop, seq, mask); got != want {
				t.Fatalf("split %d rep %d: loss %v != %v", stop, rep, got, want)
			}
		}
	}
}

// TestForwardBackwardZeroAllocs asserts the workspace contract: with a warm
// workspace and warm gradient buffers, a full forward/backward pass, an
// inference pass, an eval loss, a profiling pass and an SPSA prefix+suffix
// probe perform zero heap allocations.
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
	if n := testing.AllocsPerRun(10, func() {
		m.LossWS(ws, seq, nil)
	}); n != 0 {
		t.Fatalf("warm LossWS allocates %v times per run, want 0", n)
	}
	stats := NewActivationStats(m.Cfg, false)
	if n := testing.AllocsPerRun(10, func() {
		m.ProfileWS(ws, seq, stats, -1)
	}); n != 0 {
		t.Fatalf("warm ProfileWS allocates %v times per run, want 0", n)
	}
	stop := len(m.Layers) / 2
	if n := testing.AllocsPerRun(10, func() {
		m.LossSuffixWS(ws, m.ForwardPrefixWS(ws, seq, stop, nil, -1), stop, seq, nil)
	}); n != 0 {
		t.Fatalf("warm ForwardPrefixWS+LossSuffixWS allocates %v times per run, want 0", n)
	}
}

// TestProfileWSMatchesForwardPrefix pins the profiling pass, whose top layer
// routes but runs no expert, to the full ForwardPrefixWS pass through every
// layer: the same counts, attention sums, token total and sample sets, over
// sequences of varying length accumulated into one stats value on one
// workspace.
func TestProfileWSMatchesForwardPrefix(t *testing.T) {
	m := workspaceTestModel(t)
	g := tensor.NewRNG(12)
	want := NewActivationStats(m.Cfg, true)
	got := NewActivationStats(m.Cfg, true)
	ws := NewWorkspace()
	for id, n := range []int{17, 32, 1, 9, 24} {
		seq := wsSeq(g, m.Cfg.VocabSize, n)
		m.ForwardPrefixWS(nil, seq, len(m.Layers), want, id)
		m.ProfileWS(ws, seq, got, id)
	}
	if got.Tokens != want.Tokens {
		t.Fatalf("tokens %v, full pass %v", got.Tokens, want.Tokens)
	}
	for l := range want.Counts {
		for e := range want.Counts[l] {
			if got.Counts[l][e] != want.Counts[l][e] || got.AttnSum[l][e] != want.AttnSum[l][e] ||
				!slices.Equal(got.SampleSet(l, e), want.SampleSet(l, e)) {
				t.Fatalf("layer %d expert %d: stats differ from the full pass", l, e)
			}
		}
	}
}

// TestRoutesToWSUnroutedLossUnchanged holds RoutesToWS to its promise on
// every expert of every layer, under masks that score every row, a
// completion, and one row: an expert it calls unrouted can be perturbed
// without moving the resumed loss by a bit, and one it calls routed is
// routed to a row the loss reads. The masks must produce both answers, and
// a top-layer expert routed only outside the scored span.
func TestRoutesToWSUnroutedLossUnchanged(t *testing.T) {
	m := workspaceTestModel(t)
	g := tensor.NewRNG(13)
	seq := wsSeq(g, m.Cfg.VocabSize, 12)
	top := len(m.Layers) - 1
	one := make([]bool, len(seq))
	one[4] = true
	completion := make([]bool, len(seq))
	for t := 7; t < len(seq)-1; t++ {
		completion[t] = true
	}
	ws := NewWorkspace()
	var routed, unrouted, outsideSpan int
	for _, mask := range [][]bool{nil, completion, one} {
		lo, hi := scoredSpan(len(seq), mask)
		base := m.LossWS(ws, seq, mask)
		for l, layer := range m.Layers {
			for orig := range layer.Routing {
				ex := m.ExpertAt(l, orig)
				pos := layer.Routing[orig]
				var anywhere, inSpan bool
				for r := 0; r < len(seq); r++ {
					if _, experts := ws.caches[l].routes(r); slices.Contains(experts, pos) {
						anywhere = true
						inSpan = inSpan || l < top || (lo <= r && r < hi)
					}
				}
				got := m.RoutesToWS(ws, l, orig, mask)
				if got != inSpan {
					t.Fatalf("layer %d expert %d: RoutesToWS %v, routed to a read row %v", l, orig, got, inSpan)
				}
				if got {
					routed++
					continue
				}
				unrouted++
				if l == top && anywhere {
					outsideSpan++
				}
				flat := ex.FlattenTo(nil)
				pert := append([]float64(nil), flat...)
				for i := range pert {
					pert[i] += 0.5
				}
				ex.LoadFlat(pert)
				loss := m.LossSuffixWS(ws, m.LayerInputWS(ws, l), l, seq, mask)
				ex.LoadFlat(flat)
				if math.Float64bits(loss) != math.Float64bits(base) {
					t.Fatalf("layer %d expert %d unrouted, but perturbing it moved the loss %v to %v", l, orig, base, loss)
				}
			}
		}
	}
	if routed == 0 || unrouted == 0 || outsideSpan == 0 {
		t.Fatalf("vacuous: %d routed, %d unrouted, %d top-layer experts routed only outside the span", routed, unrouted, outsideSpan)
	}
}
