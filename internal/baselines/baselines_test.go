package baselines

import (
	"math"
	"sort"
	"testing"

	"repro/internal/data"
	"repro/internal/fed"
	"repro/internal/moe"
	"repro/internal/quant"
	"repro/internal/simtime"
	"repro/internal/tensor"
)

func testEnv(t *testing.T, seed string) *fed.Env {
	t.Helper()
	cfg := fed.DefaultConfig()
	cfg.Participants = 4
	cfg.DatasetSize = 80
	cfg.Batch = 4
	cfg.EvalSubset = 10
	cfg.MaxRounds = 3
	cfg.PretrainSteps = 30
	modelCfg := moe.Uniform("base-test", 64, 8, 12, 3, 4, 2, 64)
	env, err := fed.NewEnv(modelCfg, data.GSM8K(), cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func roundSeconds(phases map[simtime.Phase]float64) float64 {
	// Summed in sorted phase order: float accumulation over a randomized
	// map order would differ in the last bits between runs.
	keys := make([]simtime.Phase, 0, len(phases))
	for k := range phases {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var s float64
	for _, k := range keys {
		s += phases[k]
	}
	return s
}

func TestNames(t *testing.T) {
	if (FMD{}).Name() != "fmd" || NewFMQ().Name() != "fmq" || NewFMES().Name() != "fmes" {
		t.Fatal("names wrong")
	}
}

func TestFMDImprovesModel(t *testing.T) {
	env := testEnv(t, "fmd")
	before := env.Evaluate()
	var m FMD
	for r := 0; r < 4; r++ {
		m.Round(env, r)
	}
	if after := env.Evaluate(); after <= before {
		t.Fatalf("FMD did not improve: %v -> %v", before, after)
	}
}

func TestFMDRoundSlowerThanFMES(t *testing.T) {
	// FMD pays full-model training plus offloading; FMES trains a small
	// subset. Per-round simulated time must reflect that.
	envA := testEnv(t, "speed")
	envB := envA.CloneForMethod("fmes")
	tFMD := roundSeconds(FMD{}.Round(envA, 0))
	tFMES := roundSeconds(NewFMES().Round(envB, 0))
	if tFMD <= tFMES {
		t.Fatalf("FMD round (%v s) should be slower than FMES (%v s)", tFMD, tFMES)
	}
}

func TestFMQRequantizesExperts(t *testing.T) {
	env := testEnv(t, "fmq")
	q := NewFMQ()
	q.Round(env, 0)
	// After a round, aggregated global expert weights must lie close to the
	// 4-bit grid of each participant's updates — in particular the model
	// must still work and not be NaN.
	score := env.Evaluate()
	if score < 0 || score > 1 {
		t.Fatalf("score %v out of range", score)
	}

	// requantizeExperts rounds in place; it must leave exactly the bits the
	// materialised code matrix (Quantize then Dequantize) reconstructs.
	m := env.Global.Clone()
	requantizeExperts(m, q.Bits)
	for l, layer := range env.Global.Layers {
		for e, src := range layer.Experts {
			got := m.Layers[l].Experts[e]
			for _, p := range []struct{ got, src *tensor.Matrix }{{got.W1, src.W1}, {got.W2, src.W2}} {
				want := quant.Quantize(p.src, q.Bits).Dequantize()
				for i, w := range want.Data {
					if math.Float64bits(p.got.Data[i]) != math.Float64bits(w) {
						t.Fatalf("layer %d expert %d element %d: in-place %v != round-trip oracle %v", l, e, i, p.got.Data[i], w)
					}
				}
			}
		}
	}
}

func TestFMQWorseThanFMDOnQuality(t *testing.T) {
	// The paper's Observation: quantized fine-tuning accumulates precision
	// errors. After identical rounds from identical states, FMQ should not
	// beat FMD.
	envD := testEnv(t, "quality")
	envQ := envD.CloneForMethod("fmq")
	var d FMD
	q := NewFMQ()
	for r := 0; r < 4; r++ {
		d.Round(envD, r)
		q.Round(envQ, r)
	}
	sd, sq := envD.Evaluate(), envQ.Evaluate()
	if sq > sd+0.05 {
		t.Fatalf("FMQ (%v) should not outperform FMD (%v)", sq, sd)
	}
}

func TestFMQInvalidBitsFallsBack(t *testing.T) {
	env := testEnv(t, "fmq-bits")
	q := FMQ{Bits: quant.Bits(3)}
	// Must not panic; falls back to 4-bit.
	q.Round(env, 0)
}

func TestFMESKeepsBudget(t *testing.T) {
	env := testEnv(t, "fmes-budget")
	res := NewFMES()
	phases := res.Round(env, 0)
	if phases[simtime.PhaseProfiling] <= 0 {
		t.Fatal("FMES must pay serial profiling")
	}
	if phases[simtime.PhaseFineTuning] <= 0 {
		t.Fatal("FMES must train")
	}
}

func TestTopByFrequency(t *testing.T) {
	cfg := moe.Uniform("freq", 32, 8, 12, 2, 4, 2, 16)
	stats := moe.NewActivationStats(cfg, false)
	// Make expert (0,3) and (1,1) the most frequent.
	stats.Counts[0][3] = 100
	stats.Counts[1][1] = 90
	stats.Counts[0][0] = 10
	stats.Counts[1][0] = 5
	stats.Tokens = 200
	got := TopByFrequency(stats, cfg, 4)
	if len(got) != 2 {
		t.Fatalf("%d layers", len(got))
	}
	in := func(l, e int) bool {
		for _, x := range got[l] {
			if x == e {
				return true
			}
		}
		return false
	}
	if !in(0, 3) || !in(1, 1) {
		t.Fatalf("top experts missing: %v", got)
	}
	total := len(got[0]) + len(got[1])
	if total != 4 {
		t.Fatalf("budget violated: %d", total)
	}
}

func TestTopByFrequencyLayerFloor(t *testing.T) {
	cfg := moe.Uniform("freq2", 32, 8, 12, 3, 4, 2, 16)
	stats := moe.NewActivationStats(cfg, false)
	stats.Counts[0][0] = 100
	stats.Counts[0][1] = 90
	stats.Counts[0][2] = 80
	stats.Tokens = 300
	// Budget below layer count: every layer still gets one expert.
	got := TopByFrequency(stats, cfg, 1)
	for l, ids := range got {
		if len(ids) == 0 {
			t.Fatalf("layer %d starved", l)
		}
	}
}

func TestDiscardModelZeroesNonTuning(t *testing.T) {
	cfg := moe.Uniform("discard", 32, 8, 12, 2, 4, 2, 16)
	env := testEnv(t, "discard-env")
	_ = cfg
	tuning := [][]int{{0}, {1}, {2}}
	local, err := discardModel(env.Global, tuning)
	if err != nil {
		t.Fatal(err)
	}
	for l, layer := range local.Layers {
		if len(layer.Experts) != 2 { // 1 tuning + 1 zero placeholder
			t.Fatalf("layer %d has %d experts", l, len(layer.Experts))
		}
		var zero *moe.Expert
		for _, e := range layer.Experts {
			if len(e.MergedFrom) > 0 {
				zero = e
			}
		}
		if zero == nil {
			t.Fatalf("layer %d has no placeholder", l)
		}
		if tensor.Norm2(zero.W1.Data) != 0 || tensor.Norm2(zero.W2.Data) != 0 {
			t.Fatal("placeholder not zeroed")
		}
		if !zero.Frozen {
			t.Fatal("placeholder must be frozen")
		}
	}
}
