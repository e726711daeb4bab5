package flux

import (
	"math"
	"strings"
	"testing"
)

func TestNewDefaultsAreValid(t *testing.T) {
	e, err := New()
	if err != nil {
		t.Fatalf("New() with defaults: %v", err)
	}
	cfg := e.Config()
	if cfg.Method != "flux" || cfg.Dataset != "gsm8k" || cfg.Model != "llama" {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
}

func TestNewRejectsInvalidOptions(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		want string // substring of the error
	}{
		{"unknown method", []Option{WithMethod("sgd")}, "unknown method"},
		{"unknown dataset", []Option{WithDataset("imagenet")}, "imagenet"},
		{"unknown model", []Option{WithModel("gpt")}, "unknown model"},
		{"zero rounds", []Option{WithRounds(0)}, "rounds"},
		{"negative participants", []Option{WithParticipants(-3)}, "participants"},
		{"zero batch", []Option{WithBatch(0)}, "batch"},
		{"negative lr", []Option{WithLearningRate(-1)}, "learning rate"},
		{"empty seed", []Option{WithSeed("")}, "seed"},
		{"negative target", []Option{WithTarget(-0.5)}, "target"},
		{"dataset below fleet", []Option{WithParticipants(10), WithDatasetSize(5)}, "dataset size"},
		{"negative pretrain steps", []Option{WithPretrainSteps(-2)}, "pretrain steps"},
		{"zero alpha", []Option{WithAlpha(0)}, "alpha"},
		{"negative alpha", []Option{WithAlpha(-1)}, "alpha"},
		{"NaN alpha", []Option{WithAlpha(math.NaN())}, "alpha"},
		{"infinite alpha", []Option{WithAlpha(math.Inf(1))}, "alpha"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.opts...); err == nil {
				t.Fatalf("New(%s) succeeded, want error", tc.name)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestOptionsCompose(t *testing.T) {
	e, err := New(
		WithMethod("fmq"),
		WithDataset("piqa"),
		WithModel("deepseek"),
		WithSeed("compose"),
		WithRounds(5),
		WithParticipants(4),
		WithBatch(3),
		WithLocalIters(1),
		WithLearningRate(0.5),
		WithAlpha(1.0),
		WithDatasetSize(80),
		WithEvalSubset(8),
		WithPretrainSteps(10),
		WithServerBandwidth(5e4),
		WithTarget(0.9),
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := e.Config()
	if cfg.Method != "fmq" || cfg.Dataset != "piqa" || cfg.Model != "deepseek" ||
		cfg.Seed != "compose" || cfg.Rounds != 5 || cfg.Participants != 4 ||
		cfg.Batch != 3 || cfg.LocalIters != 1 || cfg.LR != 0.5 || cfg.Alpha != 1.0 ||
		cfg.DatasetSize != 80 || cfg.EvalSubset != 8 || cfg.PretrainSteps != 10 ||
		cfg.ServerBandwidth != 5e4 || cfg.Target != 0.9 {
		t.Fatalf("options did not compose: %+v", cfg)
	}
}

func TestWithDatasetTargetOverridesTarget(t *testing.T) {
	e, err := New(WithTarget(0.4), WithDatasetTarget())
	if err != nil {
		t.Fatal(err)
	}
	if !e.Config().UseDatasetTarget {
		t.Fatal("WithDatasetTarget not recorded")
	}
	// And the reverse order: an explicit target wins over the dataset's.
	e, err = New(WithDatasetTarget(), WithTarget(0.4))
	if err != nil {
		t.Fatal(err)
	}
	if e.Config().UseDatasetTarget || e.Config().Target != 0.4 {
		t.Fatal("WithTarget did not override WithDatasetTarget")
	}
}

func TestMethodsRegistry(t *testing.T) {
	ms := Methods()
	if len(ms) < 4 {
		t.Fatalf("expected at least the 4 built-in methods, got %d", len(ms))
	}
	byName := map[string]MethodInfo{}
	for _, m := range ms {
		byName[m.Name] = m
	}
	for _, want := range []string{"flux", "fmd", "fmq", "fmes"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("built-in method %q missing from registry", want)
		}
	}
	if err := RegisterMethod("flux", "dup", nil); err == nil {
		t.Fatal("re-registering a built-in name should fail")
	}
}
