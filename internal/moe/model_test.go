package moe

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
)

func tinyConfig() Config {
	return Uniform("tiny", 32, 8, 12, 3, 4, 2, 24)
}

func tinyModel(t testing.TB, seed string) *Model {
	t.Helper()
	m, err := New(tinyConfig(), tensor.Named(seed))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func seqOf(g *tensor.RNG, vocab, n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = g.Zipf(vocab, 1.1)
	}
	return s
}

func TestConfigValidate(t *testing.T) {
	good := tinyConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.VocabSize = 0 },
		func(c *Config) { c.Dim = -1 },
		func(c *Config) { c.ExpertsPerLayer = nil },
		func(c *Config) { c.TopK = 0 },
		func(c *Config) { c.TopK = 99 },
		func(c *Config) { c.MaxSeqLen = 1 },
		func(c *Config) { c.ExpertsPerLayer = []int{4, 0, 4} },
	}
	for i, mutate := range cases {
		c := tinyConfig()
		c.ExpertsPerLayer = append([]int(nil), c.ExpertsPerLayer...)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

func TestParamCounts(t *testing.T) {
	c := tinyConfig()
	wantExpert := 8*12 + 12 + 12*8 + 8
	if got := c.ExpertParams(); got != wantExpert {
		t.Fatalf("expert params = %d want %d", got, wantExpert)
	}
	if c.TotalParams() <= 0 {
		t.Fatal("total params must be positive")
	}
	experts := 0
	for _, n := range c.ExpertsPerLayer {
		experts += n
	}
	if ep := experts * c.ExpertParams(); ep <= 0 || ep >= c.TotalParams() {
		t.Fatalf("experts hold %d of %d parameters", ep, c.TotalParams())
	}
}

// TestLayerNorm pins layerNormRow's contract: zero mean, unit variance up to
// the epsilon, and the returned 1/std is the scale it applied.
func TestLayerNorm(t *testing.T) {
	src := []float64{1, 2, 3, 4}
	dst := make([]float64, 4)
	inv := layerNormRow(dst, src)
	if m := tensor.Mean(dst); math.Abs(m) > 1e-9 {
		t.Fatalf("layernorm mean = %v", m)
	}
	if va := tensor.Variance(dst); math.Abs(va-1) > 1e-4 {
		t.Fatalf("layernorm variance = %v", va)
	}
	if want := (src[3] - 2.5) * inv; dst[3] != want {
		t.Fatalf("dst[3] = %v, want (x-mean)*inv = %v", dst[3], want)
	}
}

// TestLayerNormRowsBitIdentity holds layerNormRows — four rows a pass, with
// left-over rows one at a time — to one layerNormRow per row, bit for bit:
// every row count 0–9 (each remainder after the four-row groups), widths 1,
// 3, 16 and 24, a source offset, and rows of ordinary values, constants,
// ±0, magnitudes near 1e±150 and a NaN, in both outputs and the 1/stds.
func TestLayerNormRowsBitIdentity(t *testing.T) {
	g := tensor.NewRNG(43)
	fill := func(row []float64) {
		switch g.Intn(6) {
		case 0:
			for i := range row {
				row[i] = 7 // zero variance: 1/std is 1/sqrt(eps)
			}
		case 1:
			for i := range row {
				row[i] = math.Copysign(0, -1)
			}
		case 2:
			for i := range row {
				row[i] = 1e150 * g.Norm()
			}
		case 3:
			for i := range row {
				row[i] = 1e-150 * g.Norm()
			}
		default:
			for i := range row {
				row[i] = 3 * g.Norm()
			}
		}
		if g.Intn(8) == 0 {
			row[g.Intn(len(row))] = math.NaN()
		}
	}
	for _, D := range []int{1, 3, 16, 24} {
		for T := 0; T <= 9; T++ {
			const from = 2
			src := tensor.NewMatrix(from+T, D)
			for r := 0; r < src.Rows; r++ {
				fill(src.Row(r))
			}
			got, want := tensor.NewMatrix(T, D), tensor.NewMatrix(T, D)
			invGot, invWant := make([]float64, T), make([]float64, T)
			layerNormRows(got, src, from, invGot)
			for r := 0; r < T; r++ {
				invWant[r] = layerNormRow(want.Row(r), src.Row(from+r))
			}
			if !sameBits(got.Data, want.Data) || !sameBits(invGot, invWant) {
				t.Fatalf("D=%d T=%d: layerNormRows differs from layerNormRow per row", D, T)
			}
		}
	}
}

func TestCatalogMatchesTable1(t *testing.T) {
	cat := Catalog()
	if len(cat) != 5 {
		t.Fatalf("catalog has %d entries", len(cat))
	}
	llama := cat[0]
	if llama.Layers != 32 || llama.Experts != 16 {
		t.Fatalf("llama topology %d/%d", llama.Layers, llama.Experts)
	}
	// 6.7B at FP16 ≈ 12.5 GiB; paper reports 13.48GB — within 10%.
	if math.Abs(llama.SizeGB-13.48)/13.48 > 0.10 {
		t.Fatalf("llama size %.2f too far from 13.48", llama.SizeGB)
	}
}

func TestForwardShapeAndDeterminism(t *testing.T) {
	m := tinyModel(t, "fwd")
	g := tensor.NewRNG(1)
	seq := seqOf(g, m.Cfg.VocabSize, 10)
	a := m.ForwardWS(nil, seq, nil, -1)
	b := m.ForwardWS(nil, seq, nil, -1)
	if a.Rows != 10 || a.Cols != m.Cfg.VocabSize {
		t.Fatalf("logits shape %dx%d", a.Rows, a.Cols)
	}
	if !a.Equal(b, 0) {
		t.Fatal("forward is not deterministic")
	}
	for _, v := range a.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite logit")
		}
	}
}

func TestCausality(t *testing.T) {
	// Changing a later token must not change logits at earlier positions.
	m := tinyModel(t, "causal")
	g := tensor.NewRNG(2)
	seq := seqOf(g, m.Cfg.VocabSize, 12)
	base := m.ForwardWS(nil, seq, nil, -1)
	seq2 := append([]int(nil), seq...)
	seq2[11] = (seq2[11] + 1) % m.Cfg.VocabSize
	pert := m.ForwardWS(nil, seq2, nil, -1)
	for t2 := 0; t2 < 11; t2++ {
		for j := 0; j < base.Cols; j++ {
			if math.Abs(base.At(t2, j)-pert.At(t2, j)) > 1e-9 {
				t.Fatalf("position %d logits changed by future token", t2)
			}
		}
	}
}

// TestGradientCheck validates the expert backward pass against finite
// differences. Because attention probabilities, routing probabilities, and
// LayerNorm statistics are intentionally treated as constants in backward
// (see package doc), the check perturbs only the *last* layer's expert
// parameters, where the analytic gradient is exact.
func TestGradientCheck(t *testing.T) {
	m := tinyModel(t, "gradcheck")
	g := tensor.NewRNG(3)
	seq := seqOf(g, m.Cfg.VocabSize, 8)
	last := len(m.Layers) - 1

	grads := NewGrads(m, false)
	m.ForwardBackwardWS(nil, seq, nil, grads, nil, -1)

	const eps = 1e-5
	checked := 0
	for ei, ex := range m.Layers[last].Experts {
		eg := grads.Experts[last][ei]
		if eg == nil {
			continue
		}
		// Check a handful of W1 and W2 entries per touched expert.
		for _, probe := range []struct {
			mat  *tensor.Matrix
			grad *tensor.Matrix
		}{{ex.W1, eg.W1}, {ex.W2, eg.W2}} {
			for _, idx := range []int{0, len(probe.mat.Data) / 2, len(probe.mat.Data) - 1} {
				orig := probe.mat.Data[idx]
				probe.mat.Data[idx] = orig + eps
				lossPlus := m.LossWS(nil, seq, nil)
				probe.mat.Data[idx] = orig - eps
				lossMinus := m.LossWS(nil, seq, nil)
				probe.mat.Data[idx] = orig
				numeric := (lossPlus - lossMinus) / (2 * eps)
				analytic := probe.grad.Data[idx]
				if math.Abs(numeric-analytic) > 1e-4*(1+math.Abs(numeric)) {
					t.Fatalf("expert %d grad mismatch at %d: numeric %v analytic %v", ei, idx, numeric, analytic)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no experts were touched by the gradient check")
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	m := tinyModel(t, "train")
	g := tensor.NewRNG(4)
	// A fixed tiny corpus: the model should memorize it.
	corpus := make([][]int, 4)
	for i := range corpus {
		corpus[i] = seqOf(g, m.Cfg.VocabSize, 12)
	}
	grads := NewGrads(m, true)
	lossAt := func() float64 {
		var s float64
		for _, seq := range corpus {
			s += m.LossWS(nil, seq, nil)
		}
		return s / float64(len(corpus))
	}
	before := lossAt()
	for step := 0; step < 60; step++ {
		for _, seq := range corpus {
			m.ForwardBackwardWS(nil, seq, nil, grads, nil, -1)
		}
		m.ApplySGD(grads, 0.5/float64(len(corpus)))
	}
	after := lossAt()
	if after >= before*0.8 {
		t.Fatalf("training did not reduce loss: %v -> %v", before, after)
	}
}

func TestFrozenExpertsDoNotMove(t *testing.T) {
	m := tinyModel(t, "frozen")
	for _, layer := range m.Layers {
		for _, e := range layer.Experts {
			e.Frozen = true
		}
	}
	snapshot := m.Layers[0].Experts[0].W1.Clone()
	g := tensor.NewRNG(5)
	grads := NewGrads(m, false)
	for i := 0; i < 5; i++ {
		m.ForwardBackwardWS(nil, seqOf(g, m.Cfg.VocabSize, 10), nil, grads, nil, -1)
		m.ApplySGD(grads, 0.1)
	}
	if !m.Layers[0].Experts[0].W1.Equal(snapshot, 0) {
		t.Fatal("frozen expert parameters changed")
	}
}

func TestLossMask(t *testing.T) {
	m := tinyModel(t, "mask")
	g := tensor.NewRNG(6)
	seq := seqOf(g, m.Cfg.VocabSize, 10)
	mask := make([]bool, len(seq))
	// Mask with no positions: loss must be 0 tokens -> returns 0.
	if l := m.LossWS(nil, seq, mask); l != 0 {
		t.Fatalf("empty mask loss = %v", l)
	}
	for i := 5; i < len(mask); i++ {
		mask[i] = true
	}
	full := m.LossWS(nil, seq, nil)
	masked := m.LossWS(nil, seq, mask)
	if masked == full {
		t.Fatal("mask had no effect")
	}
	if masked <= 0 {
		t.Fatalf("masked loss = %v", masked)
	}
}

func TestActivationStatsSumToTopK(t *testing.T) {
	m := tinyModel(t, "stats")
	g := tensor.NewRNG(7)
	stats := NewActivationStats(m.Cfg, true)
	for i := 0; i < 8; i++ {
		m.ForwardWS(nil, seqOf(g, m.Cfg.VocabSize, 12), stats, i)
	}
	for l := range m.Layers {
		var sum float64
		for e := 0; e < m.Cfg.ExpertsPerLayer[l]; e++ {
			sum += stats.Frequency(l, e)
		}
		if math.Abs(sum-float64(m.Cfg.TopK)) > 1e-9 {
			t.Fatalf("layer %d frequencies sum to %v, want topK=%d", l, sum, m.Cfg.TopK)
		}
	}
	if stats.Tokens != 8*12 {
		t.Fatalf("tokens = %v", stats.Tokens)
	}
}

func TestSampleTracking(t *testing.T) {
	m := tinyModel(t, "samples")
	g := tensor.NewRNG(8)
	stats := NewActivationStats(m.Cfg, true)
	m.ForwardWS(nil, seqOf(g, m.Cfg.VocabSize, 12), stats, 42)
	found := false
	for e := 0; e < m.Cfg.ExpertsPerLayer[0]; e++ {
		ids := stats.SampleSet(0, e)
		for _, id := range ids {
			if id == 42 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("sample id 42 not recorded for any layer-0 expert")
	}
}

func TestGenerateLengthAndRange(t *testing.T) {
	m := tinyModel(t, "gen")
	out := m.GenerateWS(nil, []int{1, 2, 3}, 5)
	if len(out) != 5 {
		t.Fatalf("generate returned %d tokens", len(out))
	}
	for _, tok := range out {
		if tok < 0 || tok >= m.Cfg.VocabSize {
			t.Fatalf("token %d out of range", tok)
		}
	}
}

func TestScoreContinuationPrefersLikely(t *testing.T) {
	m := tinyModel(t, "score")
	g := tensor.NewRNG(10)
	// Train the model to continue prefix with a fixed continuation.
	prefix := []int{5, 6, 7, 8}
	good := []int{1, 2, 3}
	bad := []int{20, 21, 22}
	seq := append(append([]int(nil), prefix...), good...)
	grads := NewGrads(m, true)
	for i := 0; i < 120; i++ {
		m.ForwardBackwardWS(nil, seq, nil, grads, nil, -1)
		m.ApplySGD(grads, 0.5)
	}
	_ = g
	ws := NewWorkspace()
	if scoreContinuation(m, ws, prefix, good) <= scoreContinuation(m, ws, prefix, bad) {
		t.Fatal("trained continuation should score higher")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	m := tinyModel(t, "ckpt")
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := DecodeBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	g := tensor.NewRNG(11)
	seq := seqOf(g, m.Cfg.VocabSize, 10)
	if !m.ForwardWS(nil, seq, nil, -1).Equal(m2.ForwardWS(nil, seq, nil, -1), 0) {
		t.Fatal("loaded model produces different logits")
	}
}

func TestEncodeDecodeBytes(t *testing.T) {
	m := tinyModel(t, "bytes")
	b, err := m.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBytes(b); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBytes([]byte("garbage")); err == nil {
		t.Fatal("expected decode error")
	}
}

// TestLoadRejectsMisshapenTensors corrupts one tensor of a saved model per
// case; decoding must fail naming it, since ForwardWS would otherwise read
// mis-strided rows. A customized (merged) model, whose layers hold fewer
// experts than the gate spans, must still load.
func TestLoadRejectsMisshapenTensors(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(m *Model)
		want    string
	}{
		{"embed twice as wide", func(m *Model) { m.Embed = tensor.NewMatrix(m.Cfg.VocabSize, 2*m.Cfg.Dim) }, "embed"},
		{"head transposed", func(m *Model) { m.Head = tensor.NewMatrix(m.Cfg.VocabSize, m.Cfg.Dim) }, "head"},
		{"short embed data", func(m *Model) { m.Embed.Data = m.Embed.Data[:5] }, "embed"},
		{"vocab·dim overflows to the empty embed", func(m *Model) {
			m.Cfg.VocabSize = 1 << 61 // 2^61 · 8 wraps to 0
			m.Embed = &tensor.Matrix{Rows: m.Cfg.VocabSize, Cols: m.Cfg.Dim}
			m.Head = &tensor.Matrix{Rows: m.Cfg.Dim, Cols: m.Cfg.VocabSize}
		}, "embed"},
		{"missing layer", func(m *Model) { m.Layers = m.Layers[:1] }, "layers"},
		{"wk shape", func(m *Model) { m.Layers[1].Wk = tensor.NewMatrix(m.Cfg.Dim, m.Cfg.Dim+1) }, "layer 1 attention"},
		{"gate width", func(m *Model) { m.Layers[0].Gate = tensor.NewMatrix(m.Cfg.Dim, m.Layers[0].OrigExperts-1) }, "layer 0 gate"},
		{"expert count", func(m *Model) { m.Layers[0].Experts = m.Layers[0].Experts[1:] }, "layer 0 has"},
		{"routing length", func(m *Model) { m.Layers[1].Routing = m.Layers[1].Routing[1:] }, "layer 1 routes top-"},
		{"routing past the experts", func(m *Model) { m.Layers[1].Routing[0] = len(m.Layers[1].Experts) }, "layer 1 routes expert 0"},
		{"top-k", func(m *Model) { m.Layers[0].TopK = 0 }, "top-0"},
		{"expert w1", func(m *Model) { m.Layers[0].Experts[1].W1 = tensor.NewMatrix(m.Cfg.FFNDim, m.Cfg.Dim) }, "expert 1 is not"},
		{"expert w2 data", func(m *Model) { m.Layers[0].Experts[0].W2.Data = nil }, "expert 0 is not"},
		{"expert bias", func(m *Model) { m.Layers[1].Experts[0].B1 = m.Layers[1].Experts[0].B1[1:] }, "expert 0 is not"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tinyModel(t, "load-shapes")
			tc.corrupt(m)
			b, err := m.EncodeBytes()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := DecodeBytes(b); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("DecodeBytes error = %v, want one naming %q", err, tc.want)
			}
		})
	}

	m := tinyModel(t, "load-shapes")
	specs := make([]LayerSpec, len(m.Layers))
	for l, layer := range m.Layers {
		rest := make([]int, 0, layer.OrigExperts-1)
		for e := 1; e < layer.OrigExperts; e++ {
			rest = append(rest, e)
		}
		specs[l] = LayerSpec{Tuning: []int{0}, MergeGroups: [][]int{rest}}
	}
	local, err := Customize(m, specs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := local.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBytes(b); err != nil {
		t.Fatalf("a merged model must load: %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := tinyModel(t, "clone")
	c := m.CloneInto(nil)
	for i := range c.Layers[0].Experts[0].W1.Data {
		c.Layers[0].Experts[0].W1.Data[i] = 9
	}
	if m.Layers[0].Experts[0].W1.Equal(c.Layers[0].Experts[0].W1, 0) {
		t.Fatal("clone shares expert storage")
	}
	c.Cfg.ExpertsPerLayer[0] = 99
	if m.Cfg.ExpertsPerLayer[0] == 99 {
		t.Fatal("clone shares config slice")
	}
}

func TestQuantizedCloneApproximatesRouting(t *testing.T) {
	m := tinyModel(t, "quant-route")
	g := tensor.NewRNG(12)
	full := NewActivationStats(m.Cfg, false)
	q8 := NewActivationStats(m.Cfg, false)
	q2 := NewActivationStats(m.Cfg, false)
	qm8, qm2 := m.CloneInto(nil), m.CloneInto(nil)
	Quantize(qm8, quant.Bits8)
	Quantize(qm2, quant.Bits2)
	for i := 0; i < 20; i++ {
		seq := seqOf(g, m.Cfg.VocabSize, 16)
		m.ForwardWS(nil, seq, full, -1)
		qm8.ForwardWS(nil, seq, q8, -1)
		qm2.ForwardWS(nil, seq, q2, -1)
	}
	e8 := q8.EstimationError(full)
	e2 := q2.EstimationError(full)
	if e8 > e2 {
		t.Fatalf("8-bit error %v should not exceed 2-bit error %v", e8, e2)
	}
	if e8 > 0.35 {
		t.Fatalf("8-bit estimation error %v too large", e8)
	}
}

func TestMergeExpertsWeighted(t *testing.T) {
	g := tensor.NewRNG(13)
	a := NewExpert(4, 6, g)
	b := NewExpert(4, 6, g)
	merged := MergeExperts(nil, []*Expert{a, b}, []float64{3, 1})
	want := a.W1.At(0, 0)*0.75 + b.W1.At(0, 0)*0.25
	if math.Abs(merged.W1.At(0, 0)-want) > 1e-12 {
		t.Fatalf("weighted merge wrong: %v want %v", merged.W1.At(0, 0), want)
	}
	if !merged.Frozen {
		t.Fatal("merged expert should be frozen")
	}
	// Zero weights fall back to uniform.
	u := MergeExperts(nil, []*Expert{a, b}, []float64{0, 0})
	wantU := (a.W1.At(0, 0) + b.W1.At(0, 0)) / 2
	if math.Abs(u.W1.At(0, 0)-wantU) > 1e-12 {
		t.Fatal("zero-weight merge should average uniformly")
	}
}

func TestLayerSpecValidate(t *testing.T) {
	ok := LayerSpec{Tuning: []int{0, 1}, MergeGroups: [][]int{{2, 3}}}
	if err := ok.Validate(4); err != nil {
		t.Fatal(err)
	}
	bad := []LayerSpec{
		{Tuning: []int{0, 0}, MergeGroups: [][]int{{1, 2, 3}}}, // duplicate
		{Tuning: []int{0}, MergeGroups: [][]int{{1, 2}}},       // missing 3
		{Tuning: []int{0, 9}, MergeGroups: [][]int{{1, 2, 3}}}, // out of range
		{Tuning: []int{0, 1, 2, 3}, MergeGroups: [][]int{{}}},  // empty group
	}
	for i, s := range bad {
		if err := s.Validate(4); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestCustomizeShrinksAndReroutes(t *testing.T) {
	m := tinyModel(t, "customize")
	specs := make([]LayerSpec, len(m.Layers))
	for l := range specs {
		specs[l] = LayerSpec{
			Tuning:      []int{0},
			MergeGroups: [][]int{{1, 2}, {3}},
			MergeWeights: map[int]float64{
				1: 2, 2: 1,
			},
		}
	}
	local, err := Customize(m, specs)
	if err != nil {
		t.Fatal(err)
	}
	for l, layer := range local.Layers {
		if len(layer.Experts) != 3 {
			t.Fatalf("layer %d has %d experts, want 3", l, len(layer.Experts))
		}
		if layer.Routing[1] != layer.Routing[2] {
			t.Fatal("experts 1 and 2 should route to the same merged expert")
		}
		if layer.Routing[0] == layer.Routing[1] {
			t.Fatal("tuning expert must not alias merged expert")
		}
		if layer.Experts[layer.Routing[0]].Frozen {
			t.Fatal("tuning expert should be trainable")
		}
		if !layer.Experts[layer.Routing[1]].Frozen {
			t.Fatal("merged expert should be frozen")
		}
	}
	// A customized model still runs forward and has fewer parameters.
	g := tensor.NewRNG(14)
	seq := seqOf(g, m.Cfg.VocabSize, 10)
	logits := local.ForwardWS(nil, seq, nil, -1)
	for _, v := range logits.Data {
		if math.IsNaN(v) {
			t.Fatal("customized model produced NaN")
		}
	}
	if local.MemoryBytes() >= m.MemoryBytes() {
		t.Fatal("customized model should be smaller")
	}
}

func TestCustomizeRejectsBadSpecs(t *testing.T) {
	m := tinyModel(t, "badspec")
	specs := make([]LayerSpec, len(m.Layers))
	for l := range specs {
		specs[l] = LayerSpec{Tuning: []int{0, 1, 2, 3}}
	}
	specs[1] = LayerSpec{Tuning: []int{0}} // incomplete
	if _, err := Customize(m, specs); err == nil {
		t.Fatal("expected error for incomplete spec")
	}
	if _, err := Customize(m, specs[:1]); err == nil {
		t.Fatal("expected error for wrong spec count")
	}
}

func TestMergedModelDriftsLessThanDiscard(t *testing.T) {
	// Core motivation (Fig. 3 / §2.2.3): merging non-tuning experts must
	// approximate the full model better than discarding them outright.
	m := tinyModel(t, "merge-vs-discard")
	g := tensor.NewRNG(15)

	mergeSpecs := make([]LayerSpec, len(m.Layers))
	for l := range mergeSpecs {
		mergeSpecs[l] = LayerSpec{Tuning: []int{0, 1}, MergeGroups: [][]int{{2, 3}}}
	}
	merged, err := Customize(m, mergeSpecs)
	if err != nil {
		t.Fatal(err)
	}

	// Discarding = re-routing non-tuning experts to a zero expert.
	discarded := merged.CloneInto(nil)
	for _, layer := range discarded.Layers {
		ze := layer.Experts[len(layer.Experts)-1]
		ze.W1.Zero()
		ze.W2.Zero()
		for i := range ze.B1 {
			ze.B1[i] = 0
		}
		for i := range ze.B2 {
			ze.B2[i] = 0
		}
	}

	var mergedErr, discardErr float64
	const trials = 12
	for i := 0; i < trials; i++ {
		seq := seqOf(g, m.Cfg.VocabSize, 14)
		ref := m.OutputEmbedding(seq)
		mergedErr += tensor.CosineDist(ref, merged.OutputEmbedding(seq))
		discardErr += tensor.CosineDist(ref, discarded.OutputEmbedding(seq))
	}
	if mergedErr >= discardErr {
		t.Fatalf("merged error %v should be below discard error %v", mergedErr/trials, discardErr/trials)
	}
}

func TestPretrainLearns(t *testing.T) {
	m := tinyModel(t, "pretrain")
	g := tensor.NewRNG(16)
	sampler := func(r *tensor.RNG) []int {
		// Deterministic cyclic structure: highly learnable.
		start := r.Intn(8)
		seq := make([]int, 12)
		for i := range seq {
			seq[i] = (start + i) % 8
		}
		return seq
	}
	losses, err := PretrainContext(context.Background(), m, sampler, 40, 4, 0.5, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(losses) != 40 {
		t.Fatalf("loss curve length %d", len(losses))
	}
	first := (losses[0] + losses[1] + losses[2]) / 3
	last := (losses[37] + losses[38] + losses[39]) / 3
	if last >= first*0.8 {
		t.Fatalf("pretraining did not learn: %v -> %v", first, last)
	}
}

func TestMemoryBytesPositiveAndOrdered(t *testing.T) {
	small := MustNew(Uniform("s", 32, 8, 12, 2, 4, 2, 16), tensor.NewRNG(1))
	big := MustNew(Uniform("b", 32, 8, 12, 2, 8, 2, 16), tensor.NewRNG(1))
	if small.MemoryBytes() <= 0 || big.MemoryBytes() <= small.MemoryBytes() {
		t.Fatalf("memory bytes ordering wrong: %d vs %d", small.MemoryBytes(), big.MemoryBytes())
	}
}
