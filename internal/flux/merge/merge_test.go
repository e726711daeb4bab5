package merge

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/flux/profile"
	"repro/internal/moe"
	"repro/internal/quant"
	"repro/internal/tensor"
)

func fixture(t *testing.T) (*moe.Model, *moe.ActivationStats, []*data.Sample) {
	t.Helper()
	cfg := moe.Uniform("merge-test", 64, 10, 16, 4, 6, 2, 64)
	m := moe.MustNew(cfg, tensor.Named("merge-test"))
	ds := data.Generate(data.GSM8K(), 64, 20, tensor.NewRNG(1))
	res := profile.Profiler{Bits: quant.Bits8, TrackSamples: true}.RunFull(m, ds.Samples)
	return m, res.Stats, ds.Samples
}

func TestLayerBudgetsSingle(t *testing.T) {
	got := LayerBudgets(BudgetSingle, []int{5, 5, 5}, []float64{0.1, 0.1, 0.1}, 9)
	for l, b := range got {
		if b != 1 {
			t.Fatalf("layer %d budget %d, want 1", l, b)
		}
	}
}

func TestLayerBudgetsUniform(t *testing.T) {
	got := LayerBudgets(BudgetUniform, []int{5, 5, 5}, nil, 9)
	if got[0]+got[1]+got[2] != 9 {
		t.Fatalf("uniform budgets %v should sum to 9", got)
	}
	for l, b := range got {
		if b != 3 {
			t.Fatalf("layer %d budget %d, want 3", l, b)
		}
	}
}

func TestLayerBudgetsUniformCapped(t *testing.T) {
	got := LayerBudgets(BudgetUniform, []int{2, 5, 5}, nil, 12)
	if got[0] > 2 {
		t.Fatalf("layer 0 budget %d exceeds its expert count", got[0])
	}
	if got[0]+got[1]+got[2] != 12 {
		t.Fatalf("budgets %v should sum to 12", got)
	}
}

func TestLayerBudgetsAdaptiveFavorsEarlyAndBalanced(t *testing.T) {
	// Same variance: earlier layer gets at least as much (depth term).
	nt := []int{8, 8, 8, 8}
	va := []float64{0.01, 0.01, 0.01, 0.01}
	got := LayerBudgets(BudgetAdaptive, nt, va, 16)
	if got[0] < got[3] {
		t.Fatalf("adaptive should favor early layers: %v", got)
	}
	sum := 0
	for _, b := range got {
		sum += b
	}
	if sum != 16 {
		t.Fatalf("budgets %v sum to %d, want 16", got, sum)
	}

	// Same depth ordering, one balanced (low variance) layer: it gets more.
	va2 := []float64{0.05, 0.0001, 0.05, 0.05}
	got2 := LayerBudgets(BudgetAdaptive, nt, va2, 16)
	if got2[1] <= got2[2] {
		t.Fatalf("balanced layer should get a larger budget: %v", got2)
	}
}

func TestLayerBudgetsFloor(t *testing.T) {
	// Every populated layer must get at least one merged expert even if the
	// requested budget is smaller than the layer count.
	got := LayerBudgets(BudgetAdaptive, []int{4, 0, 4, 4}, []float64{1, 1, 1, 1}, 1)
	if got[0] < 1 || got[2] < 1 || got[3] < 1 {
		t.Fatalf("floor violated: %v", got)
	}
	if got[1] != 0 {
		t.Fatalf("empty layer should get 0: %v", got)
	}
}

func TestBuildPlanCoversAllExperts(t *testing.T) {
	m, stats, _ := fixture(t)
	tuning := [][]int{{0, 1}, {2}, {}, {5}}
	plan, err := BuildPlan(m, stats, tuning, 8, DefaultOptions(), tensor.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Specs) != 4 {
		t.Fatalf("%d specs", len(plan.Specs))
	}
	for l, spec := range plan.Specs {
		if err := spec.Validate(m.Cfg.ExpertsPerLayer[l]); err != nil {
			t.Fatalf("layer %d spec invalid: %v", l, err)
		}
	}
	// The plan must be loadable.
	local, err := moe.Customize(m, plan.Specs)
	if err != nil {
		t.Fatal(err)
	}
	if local.MemoryBytes() >= m.MemoryBytes() {
		t.Fatal("customized model should be smaller")
	}
}

func TestBuildPlanRejectsBadTuning(t *testing.T) {
	m, stats, _ := fixture(t)
	if _, err := BuildPlan(m, stats, [][]int{{0}}, 4, DefaultOptions(), tensor.NewRNG(3)); err == nil {
		t.Fatal("expected error for wrong layer count")
	}
	bad := [][]int{{99}, {}, {}, {}}
	if _, err := BuildPlan(m, stats, bad, 4, DefaultOptions(), tensor.NewRNG(3)); err == nil {
		t.Fatal("expected error for out-of-range tuning id")
	}
}

func TestMergeWeightStrategies(t *testing.T) {
	_, stats, _ := fixture(t)
	if w := mergeWeight(StrategyAvg, stats, 0, 0); w != 1 {
		t.Fatalf("avg weight = %v", w)
	}
	// Frequency strategy must differ across experts with different usage.
	wA := mergeWeight(StrategyFreq, stats, 0, 0)
	found := false
	for e := 1; e < 6; e++ {
		if mergeWeight(StrategyFreq, stats, 0, e) != wA {
			found = true
		}
	}
	if !found {
		t.Fatal("frequency weights all identical; stats look degenerate")
	}
}

func TestOutputErrorProperties(t *testing.T) {
	m, stats, samples := fixture(t)
	seqs := make([][]int, 0, 8)
	for _, s := range samples[:8] {
		seq, _ := s.FullSequence()
		seqs = append(seqs, seq)
	}
	// Identical model: zero error.
	if e := OutputError(m, m, seqs); e != 0 {
		t.Fatalf("self error = %v", e)
	}
	// Merged model: small positive error, far below 1.
	tuning := [][]int{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}, {0, 1, 2}}
	plan, err := BuildPlan(m, stats, tuning, 8, DefaultOptions(), tensor.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	local, err := moe.Customize(m, plan.Specs)
	if err != nil {
		t.Fatal(err)
	}
	e := OutputError(local, m, seqs)
	if e <= 0 || e > 1 {
		t.Fatalf("merged output error = %v", e)
	}
	if OutputError(local, m, nil) != 0 {
		t.Fatal("empty sequence list should give 0")
	}
}

func TestAttnFreqBeatsAvgOnOutputError(t *testing.T) {
	// Figure 17's claim: importance-weighted merging preserves outputs
	// better than plain averaging.
	m, stats, samples := fixture(t)
	seqs := make([][]int, 0, 12)
	for _, s := range samples[:12] {
		seq, _ := s.FullSequence()
		seqs = append(seqs, seq)
	}
	tuning := make([][]int, 4)
	for l := range tuning {
		tuning[l] = []int{0}
	}
	run := func(strategy Strategy) float64 {
		opt := DefaultOptions()
		opt.Strategy = strategy
		plan, err := BuildPlan(m, stats, tuning, 4, opt, tensor.NewRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		local, err := moe.Customize(m, plan.Specs)
		if err != nil {
			t.Fatal(err)
		}
		return OutputError(local, m, seqs)
	}
	avg := run(StrategyAvg)
	attn := run(StrategyAttnFreq)
	// Weighted merging should not be (meaningfully) worse; with aggressive
	// merging it is typically strictly better.
	if attn > avg*1.1 {
		t.Fatalf("attn+freq error %v much worse than avg %v", attn, avg)
	}
}

func TestSketchFixedLength(t *testing.T) {
	g := tensor.NewRNG(6)
	e := moe.NewExpert(10, 16, g)
	s := Sketch(e, 32)
	if len(s) != 32 {
		t.Fatalf("sketch length %d", len(s))
	}
	// Deterministic.
	s2 := Sketch(e, 32)
	for i := range s {
		if s[i] != s2[i] {
			t.Fatal("sketch not deterministic")
		}
	}
	// Similar experts give similar sketches.
	e2 := e.Clone()
	d := tensor.CosineDist(Sketch(e, 32), Sketch(e2, 32))
	if d > 1e-12 {
		t.Fatalf("identical experts sketch distance %v", d)
	}
}

// sketchByFlatten is the reference Sketch: stride-sample a flattened copy.
func sketchByFlatten(e *moe.Expert, dims int) []float64 {
	flat := e.FlattenTo(nil)
	out := make([]float64, dims)
	stride := float64(len(flat)) / float64(dims)
	if stride < 1 {
		stride = 1
	}
	for i := range out {
		idx := int(float64(i) * stride)
		if idx >= len(flat) {
			idx = len(flat) - 1
		}
		out[i] = flat[idx]
	}
	return out
}

// TestSketchMatchesFlatten pins Sketch's in-place indexing bit-equal to
// sampling the FlattenTo copy it used to make, for a fresh and a merged
// expert, and at one allocation (the result).
func TestSketchMatchesFlatten(t *testing.T) {
	g := tensor.NewRNG(8)
	a, b := moe.NewExpert(10, 16, g), moe.NewExpert(10, 16, g)
	for j := range a.B1 { // Xavier leaves biases zero; make every region distinct
		a.B1[j], b.B1[j] = g.Norm(), g.Norm()
	}
	for j := range a.B2 {
		a.B2[j], b.B2[j] = g.Norm(), g.Norm()
	}
	merged := moe.MergeExperts([]*moe.Expert{a, b}, []float64{1, 3})
	for _, e := range []*moe.Expert{a, merged} {
		for _, dims := range []int{1, 48, e.Params() + 7} {
			got, want := Sketch(e, dims), sketchByFlatten(e, dims)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("dims %d: sketch[%d] = %v, flatten sample = %v", dims, i, got[i], want[i])
				}
			}
		}
	}
	if n := testing.AllocsPerRun(10, func() { Sketch(a, 48) }); n != 1 {
		t.Fatalf("Sketch allocates %v times per run, want 1", n)
	}
}

func TestStringers(t *testing.T) {
	if BudgetSingle.String() != "single" || BudgetUniform.String() != "uniform" || BudgetAdaptive.String() != "adaptive" {
		t.Fatal("budget policy strings wrong")
	}
	if StrategyAvg.String() != "avg" || StrategyFreq.String() != "freq" || StrategyAttnFreq.String() != "attn+freq" {
		t.Fatal("strategy strings wrong")
	}
}
