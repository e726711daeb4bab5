package eval

import (
	"testing"

	"repro/internal/data"
	"repro/internal/moe"
	"repro/internal/tensor"
)

func testModel(t *testing.T) *moe.Model {
	t.Helper()
	cfg := moe.Uniform("eval-test", 64, 12, 16, 2, 4, 2, 64)
	return moe.MustNew(cfg, tensor.Named("eval"))
}

// evaluate is the sweep fed.Env.Evaluate runs, on one workspace: Score every
// sample, then Mean in sample order.
func evaluate(m *moe.Model, p data.Profile, test []*data.Sample) float64 {
	ws := moe.NewWorkspace()
	scores := make([]float64, len(test))
	for i, s := range test {
		scores[i] = Score(m, ws, p, s)
	}
	return Mean(scores)
}

func TestEvaluateBounds(t *testing.T) {
	m := testModel(t)
	g := tensor.NewRNG(1)
	for _, p := range data.Profiles() {
		ds := data.Generate(p, 64, 12, g)
		score := evaluate(m, p, ds.Samples)
		if score < 0 || score > 1 {
			t.Fatalf("%s: score %v out of [0,1]", p.Name, score)
		}
	}
}

func TestEvaluateEmpty(t *testing.T) {
	m := testModel(t)
	if Mean(nil) != 0 || evaluate(m, data.Dolly(), nil) != 0 {
		t.Fatal("empty test set should score 0")
	}
}

func TestTrainingImprovesScore(t *testing.T) {
	// Fine-tuning on the dataset must raise the evaluation score: this is
	// the end-to-end sanity check that the data generator, model, and
	// metric form a learnable pipeline.
	cfg := moe.Uniform("learn", 64, 12, 16, 2, 4, 2, 64)
	m := moe.MustNew(cfg, tensor.Named("learnable"))
	g := tensor.NewRNG(2)
	p := data.GSM8K()
	ds := data.Generate(p, 64, 120, g)
	train, test := ds.Split(0.8, g)

	before := evaluate(m, p, test)
	grads := moe.NewGrads(m, true)
	for epoch := 0; epoch < 8; epoch++ {
		for _, s := range train {
			seq, mask := s.FullSequence()
			m.ForwardBackwardWS(nil, seq, mask, grads, nil, -1)
		}
		m.ApplySGD(grads, 1.0/float64(len(train)))
	}
	after := evaluate(m, p, test)
	if after <= before {
		t.Fatalf("training did not improve score: %v -> %v", before, after)
	}
}

func TestEvaluateSubset(t *testing.T) {
	m := testModel(t)
	g := tensor.NewRNG(3)
	p := data.PIQA()
	ds := data.Generate(p, 64, 40, g)
	sub := Subset(ds.Samples, 10)
	if len(sub) != 10 || sub[0] != ds.Samples[0] || sub[1] != ds.Samples[4] {
		t.Fatalf("Subset(40 samples, 10) = %d samples, want every 4th", len(sub))
	}
	if score := evaluate(m, p, sub); score < 0 || score > 1 {
		t.Fatalf("subset score %v", score)
	}
	// n <= 0 and n >= len select the whole set.
	if len(Subset(ds.Samples, 1000)) != 40 || len(Subset(ds.Samples, 0)) != 40 {
		t.Fatal("out-of-range subset sizes must select every sample")
	}
}

func TestScoreSampleMC(t *testing.T) {
	m := testModel(t)
	g := tensor.NewRNG(4)
	p := data.MMLU()
	ds := data.Generate(p, 64, 10, g)
	ws := moe.NewWorkspace()
	for _, s := range ds.Samples {
		v := Score(m, ws, p, s)
		if v != 0 && v != 1 {
			t.Fatalf("MC score %v must be 0/1", v)
		}
	}
	// A malformed sample with an empty option must not be scored as "the
	// empty option was chosen": it used to score NaN, which ArgMax reads as
	// index 0.
	bad := *ds.Samples[0]
	bad.Options = append([][]int{nil}, bad.Options...)
	bad.Answer = 0
	if v := Score(m, ws, p, &bad); v != 0 {
		t.Fatalf("empty option chosen: score %v", v)
	}
}
