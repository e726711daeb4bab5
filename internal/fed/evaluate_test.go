package fed_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/fed"
	"repro/internal/flux"
	"repro/internal/moe"
)

// TestEvaluateWorkersBitIdentity pins the pooled evaluation to the serial
// sweep it replaced (Score every subset sample on one workspace, sum in
// sample order): Env.Evaluate returns the same bits at one, two and eight
// workers, on the pre-trained global and after three flux rounds, for a
// generation task and a multiple-choice one — and with the environment's
// context already canceled, when every sample must still be scored.
func TestEvaluateWorkersBitIdentity(t *testing.T) {
	cases := []struct {
		name    string
		model   moe.Config
		profile data.Profile
	}{
		{"llama/gsm8k", moe.SimConfigLLaMATrain(), data.GSM8K()},
		{"deepseek/mmlu", moe.SimConfigDeepSeekTrain(), data.MMLU()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := fed.DefaultConfig()
			cfg.Participants = 4
			cfg.Workers = 2
			cfg.Batch = 2
			cfg.LocalIters = 1
			cfg.DatasetSize = 80
			cfg.EvalSubset = 12
			cfg.MaxRounds = 3
			cfg.PretrainSteps = 5
			env, err := fed.NewEnv(c.model, c.profile, cfg, "evaluate-workers")
			if err != nil {
				t.Fatal(err)
			}
			env = env.CloneForMethod("flux")
			sub := eval.Subset(env.Test, cfg.EvalSubset)
			if len(sub) < 8 {
				t.Fatalf("evaluation subset has %d samples; too few for an eight-worker pool to split", len(sub))
			}

			check := func(stage string) {
				t.Helper()
				ws := moe.NewWorkspace()
				var sum float64
				for _, s := range sub {
					sum += eval.Score(env.Global, ws, env.Profile, s)
				}
				want := math.Float64bits(sum / float64(len(sub)))
				for _, workers := range []int{1, 2, 8} {
					env.Cfg.Workers = workers
					if got := math.Float64bits(env.Evaluate()); got != want {
						t.Errorf("%s, workers=%d: Evaluate bits %x, serial sweep %x", stage, workers, got, want)
					}
					canceled, cancel := context.WithCancel(context.Background())
					cancel()
					env.SetContext(canceled)
					got := math.Float64bits(env.Evaluate())
					env.SetContext(context.Background())
					if got != want {
						t.Errorf("%s, workers=%d, canceled context: Evaluate bits %x, serial sweep %x", stage, workers, got, want)
					}
				}
			}

			check("pre-trained")
			pretrained := modelDigest(env.Global)
			env.Cfg.Workers = 2
			r := flux.New(flux.DefaultOptions(cfg.MaxRounds), cfg.Participants)
			for round := 0; round < cfg.MaxRounds; round++ {
				if _, err := env.RunRound(r, round); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}
			if modelDigest(env.Global) == pretrained {
				t.Fatal("three flux rounds left the global model unchanged; the second leg would repeat the first")
			}
			check("after 3 flux rounds")
		})
	}
}
