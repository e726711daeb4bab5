package moe

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// generateOracle is the decode loop GenerateWS replaced: one full ForwardWS
// over the whole (windowed) sequence per generated token. It is the
// reference every incremental result must match bit for bit. read, when
// non-nil, receives a copy of each step's last logit row.
func generateOracle(m *Model, prefix []int, n int, read func(row []float64)) []int {
	ws := NewWorkspace()
	seq := append([]int(nil), prefix...)
	var out []int
	for i := 0; i < n; i++ {
		if len(seq) >= m.Cfg.MaxSeqLen {
			seq = seq[len(seq)-m.Cfg.MaxSeqLen+1:]
		}
		logits := m.ForwardWS(ws, seq, nil, -1)
		row := logits.Row(logits.Rows - 1)
		if read != nil {
			read(append([]float64(nil), row...))
		}
		seq = append(seq, tensor.ArgMax(row))
		out = append(out, seq[len(seq)-1])
	}
	return out
}

// scoreOracle is the per-option full forward ScoreOptionsWS replaced (for a
// non-empty cont; the empty case was 0/0).
func scoreOracle(m *Model, prefix, cont []int) float64 {
	seq := append(append([]int(nil), prefix...), cont...)
	logits := m.ForwardWS(NewWorkspace(), seq, nil, -1)
	probs := make([]float64, logits.Cols)
	var lp float64
	for i, tok := range cont {
		pos := len(prefix) + i - 1 // prediction for cont[i] is made at pos
		if pos < 0 {
			continue
		}
		tensor.Softmax(probs, logits.Row(pos))
		p := probs[tok]
		if p < 1e-12 {
			p = 1e-12
		}
		lp += math.Log(p)
	}
	return lp / float64(len(cont))
}

type decodeVariant struct {
	name string
	m    *Model
}

// decodeVariants builds the four model states evaluation meets: freshly
// initialised, pre-trained, customized (merged experts, so Routing is not
// the identity and routeToken collapses duplicates) and quantized.
func decodeVariants(t *testing.T, cfg Config) []decodeVariant {
	t.Helper()
	fresh := MustNew(cfg, tensor.Named("decode/"+cfg.Name))
	trained := fresh.CloneInto(nil)
	if _, err := PretrainContext(context.Background(), trained, func(g *tensor.RNG) []int { return wsSeq(g, cfg.VocabSize, 12) },
		6, 2, 0.5, tensor.NewRNG(31), 1); err != nil {
		t.Fatal(err)
	}
	specs := make([]LayerSpec, cfg.Layers())
	for l, n := range cfg.ExpertsPerLayer {
		spec := LayerSpec{Tuning: []int{0}, MergeWeights: map[int]float64{1: 2, 2: 0.5}}
		var rest []int
		for e := 1; e < n; e++ {
			rest = append(rest, e)
		}
		spec.MergeGroups = [][]int{rest[:len(rest)/2], rest[len(rest)/2:]}
		specs[l] = spec
	}
	custom, err := Customize(trained, specs)
	if err != nil {
		t.Fatal(err)
	}
	quantized := trained.CloneInto(nil)
	Quantize(quantized, quant.Bits4)
	return []decodeVariant{
		{"fresh", fresh},
		{"pretrained", trained},
		{"customized", custom},
		{"quantized", quantized},
	}
}

// scoreContinuation is ScoreOptionsWS with cont as the only option.
func scoreContinuation(m *Model, ws *Workspace, prefix, cont []int) float64 {
	var score [1]float64
	m.ScoreOptionsWS(ws, prefix, [][]int{cont}, score[:])
	return score[0]
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// decodeRows replays GenerateWS's calls on ws — prefill, then one-row
// extends — and hands each step's read logit row to read, so the rows
// GenerateWS argmaxes can be compared with the oracle's.
func decodeRows(m *Model, ws *Workspace, prefix []int, n int, read func(row []float64)) {
	seq := append([]int(nil), prefix...)
	ws.resetDecode(len(m.Layers), len(seq)+n, m.Cfg.Dim)
	for i := 0; i < n; i++ {
		x := m.extendWS(ws, seq[ws.decLen:])
		row := m.headLogits(ws, x, x.Rows-1, x.Rows).Row(0)
		read(append([]float64(nil), row...))
		seq = append(seq, tensor.ArgMax(row))
	}
}

// randOptions draws 2–5 options of 1–6 tokens; every other set shares its
// first token across options, the case where rewinding matters most.
func randOptions(g *tensor.RNG, vocab int) [][]int {
	opts := make([][]int, 2+g.Intn(4))
	for i := range opts {
		opts[i] = wsSeq(g, vocab, 1+g.Intn(6))
	}
	if g.Intn(2) == 0 {
		for i := range opts {
			opts[i][0] = opts[0][0]
		}
	}
	return opts
}

// checkDecode compares one GenerateWS and one ScoreOptionsWS call on ws with
// the full-recompute oracles.
func checkDecode(t *testing.T, m *Model, ws *Workspace, prefix []int, n int, opts [][]int) {
	t.Helper()
	if got, want := m.GenerateWS(ws, prefix, n), generateOracle(m, prefix, n, nil); !slices.Equal(got, want) {
		t.Fatalf("prompt %d, decode %d: generated %v, oracle %v", len(prefix), n, got, want)
	}
	scores := ws.Scores(len(opts))
	m.ScoreOptionsWS(ws, prefix, opts, scores)
	for i, opt := range opts {
		if want := scoreOracle(m, prefix, opt); math.Float64bits(scores[i]) != math.Float64bits(want) {
			t.Fatalf("prompt %d, option %d %v: score %v, oracle %v", len(prefix), i, opt, scores[i], want)
		}
		if one := scoreContinuation(m, ws, prefix, opt); math.Float64bits(one) != math.Float64bits(scores[i]) {
			t.Fatalf("prompt %d, option %d: scored alone %v != scored with the others %v", len(prefix), i, one, scores[i])
		}
	}
}

// TestIncrementalDecodeBitIdentity pins the K/V-cached decode path to the
// full-recompute loop it replaced: same tokens, and the same bits in every
// logit row read and every option score.
func TestIncrementalDecodeBitIdentity(t *testing.T) {
	for _, cfg := range []Config{SimConfigLLaMATrain(), SimConfigDeepSeekTrain()} {
		for _, v := range decodeVariants(t, cfg) {
			m := v.m
			t.Run(cfg.Name+"/"+v.name, func(t *testing.T) {
				g := tensor.Named("decode-cases/" + cfg.Name + "/" + v.name)
				ws := NewWorkspace() // one workspace for every case: stale state must not leak
				for trial := 0; trial < 6; trial++ {
					prefix := wsSeq(g, cfg.VocabSize, 1+g.Intn(30))
					n := 1 + g.Intn(10)
					checkDecode(t, m, ws, prefix, n, randOptions(g, cfg.VocabSize))

					var want [][]float64
					generateOracle(m, prefix, n, func(row []float64) { want = append(want, row) })
					step := 0
					decodeRows(m, ws, prefix, n, func(row []float64) {
						if !sameBits(row, want[step]) {
							t.Fatalf("trial %d step %d: read logit row differs from the oracle's", trial, step)
						}
						step++
					})
				}
			})
		}
	}

	// Overflow: with a tiny MaxSeqLen the window slides on most steps, so
	// GenerateWS must re-prefill the truncated window; prompts shorter than,
	// equal to and longer than the window all occur.
	t.Run("overflow", func(t *testing.T) {
		cfg := SimConfigLLaMATrain()
		cfg.MaxSeqLen = 6
		m := MustNew(cfg, tensor.Named("decode/overflow"))
		g := tensor.NewRNG(41)
		ws := NewWorkspace()
		for p := 1; p <= 9; p++ {
			prefix := wsSeq(g, cfg.VocabSize, p)
			checkDecode(t, m, ws, prefix, 9, randOptions(g, cfg.VocabSize))
		}
	})

	// Interleaving: training passes, generation and option scoring alternate
	// on ONE workspace. They share the per-layer activation buffers, so any
	// decode state surviving a call would show up as a changed bit here.
	t.Run("interleaved", func(t *testing.T) {
		cfg := SimConfigDeepSeekTrain()
		m := decodeVariants(t, cfg)[2].m // customized
		g := tensor.NewRNG(43)
		ws := NewWorkspace()
		for trial := 0; trial < 8; trial++ {
			seq := wsSeq(g, cfg.VocabSize, 2+g.Intn(40))
			if got, want := m.ForwardBackwardWS(ws, seq, nil, nil, nil, -1), m.ForwardBackwardWS(nil, seq, nil, nil, nil, -1); got != want {
				t.Fatalf("trial %d: loss %v on the shared workspace, %v on a fresh one", trial, got, want)
			}
			checkDecode(t, m, ws, wsSeq(g, cfg.VocabSize, 1+g.Intn(30)), 1+g.Intn(8), randOptions(g, cfg.VocabSize))
		}
	})
}

// TestScoreOptionsEdgeCases pins the two degenerate inputs: an empty option
// scores -Inf (it used to be 0/0 = NaN, which ArgMax silently reads as
// "option 0 chosen"), and an empty prefix leaves each option's first token
// unscored while still counting it in the mean.
func TestScoreOptionsEdgeCases(t *testing.T) {
	m := tinyModel(t, "score-edge")
	ws := NewWorkspace()
	prefix := []int{5, 6, 7}
	cases := []struct {
		name   string
		prefix []int
		opts   [][]int
	}{
		{"empty option first", prefix, [][]int{nil, {1, 2}, {3}}},
		{"empty option last", prefix, [][]int{{1, 2}, {}}},
		{"empty prefix", nil, [][]int{{1, 2, 3}, {4}, {9, 9}}},
		{"empty prefix and empty option", nil, [][]int{nil, {4, 5}}},
	}
	for _, tc := range cases {
		scores := ws.Scores(len(tc.opts))
		m.ScoreOptionsWS(ws, tc.prefix, tc.opts, scores)
		for i, opt := range tc.opts {
			want := math.Inf(-1)
			if len(opt) > 0 {
				want = scoreOracle(m, tc.prefix, opt)
			}
			if math.Float64bits(scores[i]) != math.Float64bits(want) {
				t.Errorf("%s: option %d scores %v, want %v", tc.name, i, scores[i], want)
			}
			if got := scoreContinuation(m, ws, tc.prefix, opt); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: option %d scored alone = %v, want %v", tc.name, i, got, want)
			}
		}
		if got := tensor.ArgMax(scores); len(tc.opts[got]) == 0 {
			t.Errorf("%s: ArgMax prefers the empty option %d", tc.name, got)
		}
	}
	// A single-token option after an empty prefix has nothing scored: 0/1.
	if got := scoreContinuation(m, ws, nil, []int{4}); got != 0 {
		t.Errorf("empty prefix, one-token option: score %v, want 0", got)
	}
}

// TestDecodeZeroAllocs: on a warm workspace option scoring allocates nothing
// and generation allocates only the token slice it returns.
func TestDecodeZeroAllocs(t *testing.T) {
	m := workspaceTestModel(t)
	g := tensor.NewRNG(47)
	prefix := wsSeq(g, m.Cfg.VocabSize, 14)
	opts := randOptions(g, m.Cfg.VocabSize)
	ws := NewWorkspace()
	scores := ws.Scores(len(opts))
	m.GenerateWS(ws, prefix, 8)
	m.ScoreOptionsWS(ws, prefix, opts, scores)

	if n := testing.AllocsPerRun(10, func() { m.GenerateWS(ws, prefix, 8) }); n != 1 {
		t.Fatalf("warm GenerateWS allocates %v times per run, want 1 (the returned tokens)", n)
	}
	if n := testing.AllocsPerRun(10, func() { m.ScoreOptionsWS(ws, prefix, opts, ws.Scores(len(opts))) }); n != 0 {
		t.Fatalf("warm ScoreOptionsWS allocates %v times per run, want 0", n)
	}
}
