package flux

import (
	"context"
	"math"
	"net"
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
		{"NaN lr", []Option{WithLearningRate(math.NaN())}, "learning rate"},
		{"infinite lr", []Option{WithLearningRate(math.Inf(1))}, "learning rate"},
		{"zero server bandwidth", []Option{WithServerBandwidth(0)}, "server bandwidth"},
		{"NaN server bandwidth", []Option{WithServerBandwidth(math.NaN())}, "server bandwidth"},
		{"infinite server bandwidth", []Option{WithServerBandwidth(math.Inf(1))}, "server bandwidth"},
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

// TestJoinRejectsNonFiniteLR: Join refuses a NaN or infinite learning rate
// before it dials. The address is a closed loopback port, so a Join that
// dialed would fail with a connection error instead.
func TestJoinRejectsNonFiniteLR(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	for _, lr := range []float64{math.NaN(), math.Inf(1)} {
		_, err := Join(context.Background(), JoinConfig{Addr: addr, LR: lr})
		if err == nil || !strings.Contains(err.Error(), "learning rate") {
			t.Errorf("Join(LR: %v) = %v, want a learning-rate error", lr, err)
		}
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
