package fed

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/moe"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/tensor"
)

func smallConfig() Config {
	c := DefaultConfig()
	c.Participants = 4
	c.DatasetSize = 80
	c.Batch = 4
	c.EvalSubset = 8
	c.MaxRounds = 3
	c.PretrainSteps = 20
	return c
}

func smallModelCfg() moe.Config {
	return moe.Uniform("fed-test", 64, 8, 12, 3, 4, 2, 64)
}

func newTestEnv(t *testing.T) *Env {
	t.Helper()
	env, err := NewEnv(smallModelCfg(), data.GSM8K(), smallConfig(), "fed-test")
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Participants = 0 },
		func(c *Config) { c.Batch = 0 },
		func(c *Config) { c.LR = 0 },
		func(c *Config) { c.LR = math.NaN() },
		func(c *Config) { c.LR = math.Inf(1) },
		func(c *Config) { c.DatasetSize = 1 },
		func(c *Config) { c.MaxRounds = 0 },
		func(c *Config) { c.ServerBw = 0 },
		func(c *Config) { c.ServerBw = math.NaN() },
		func(c *Config) { c.ServerBw = math.Inf(1) },
	}
	for i, mut := range bad {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestNewEnvShapes(t *testing.T) {
	env := newTestEnv(t)
	if len(env.Shards) != 4 {
		t.Fatalf("%d shards", len(env.Shards))
	}
	var n int
	for _, s := range env.Shards {
		if len(s) == 0 {
			t.Fatal("empty shard")
		}
		n += len(s)
	}
	if n != 64 { // 80 × 0.8 train fraction
		t.Fatalf("train samples = %d", n)
	}
	if len(env.Test) != 16 {
		t.Fatalf("test samples = %d", len(env.Test))
	}
	if len(env.Devices) != 4 {
		t.Fatalf("%d devices", len(env.Devices))
	}
	if env.TotalExperts() != 12 {
		t.Fatalf("total experts = %d", env.TotalExperts())
	}
}

func TestNewEnvRejectsBadConfigs(t *testing.T) {
	bad := smallConfig()
	bad.Participants = 0
	if _, err := NewEnv(smallModelCfg(), data.GSM8K(), bad, "x"); err == nil {
		t.Fatal("expected config error")
	}
	badModel := smallModelCfg()
	badModel.TopK = 0
	if _, err := NewEnv(badModel, data.GSM8K(), smallConfig(), "x"); err == nil {
		t.Fatal("expected model config error")
	}
}

func TestEnvDeterminism(t *testing.T) {
	a, err := NewEnv(smallModelCfg(), data.GSM8K(), smallConfig(), "same-seed")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEnv(smallModelCfg(), data.GSM8K(), smallConfig(), "same-seed")
	if err != nil {
		t.Fatal(err)
	}
	if !a.Global.Embed.Equal(b.Global.Embed, 0) {
		t.Fatal("same seed should produce identical models")
	}
	if math.Abs(a.Evaluate()-b.Evaluate()) > 1e-12 {
		t.Fatal("same seed should evaluate identically")
	}
}

func TestCloneForMethodIndependence(t *testing.T) {
	env := newTestEnv(t)
	c := env.CloneForMethod("x")
	for i := range c.Global.Layers[0].Experts[0].W1.Data {
		c.Global.Layers[0].Experts[0].W1.Data[i] = 7
	}
	if env.Global.Layers[0].Experts[0].W1.Equal(c.Global.Layers[0].Experts[0].W1, 0) {
		t.Fatal("clone shares model")
	}
}

func TestBudgets(t *testing.T) {
	env := newTestEnv(t)
	for i := 0; i < 4; i++ {
		capacity, tune := env.Budgets(i)
		if capacity < env.Global.Cfg.Layers() {
			t.Fatalf("capacity %d below layer count", capacity)
		}
		if tune < 1 || tune > capacity {
			t.Fatalf("tune budget %d invalid (capacity %d)", tune, capacity)
		}
	}
}

func TestBatchRotation(t *testing.T) {
	env := newTestEnv(t)
	b0 := env.Batch(0, 0)
	b1 := env.Batch(0, 1)
	if len(b0) == 0 || len(b0) > env.Cfg.Batch {
		t.Fatalf("batch size %d", len(b0))
	}
	if len(env.Shards[0]) > env.Cfg.Batch && b0[0].ID == b1[0].ID {
		t.Fatal("consecutive rounds should rotate data")
	}
}

func TestAggregateFedAvg(t *testing.T) {
	g := tensor.NewRNG(1)
	global := moe.MustNew(smallModelCfg(), g)
	key := ExpertKey{Layer: 0, Expert: 1}
	orig := global.ExpertAt(0, 1).FlattenTo(nil)

	mkUpdate := func(val, weight float64) Update {
		params := make([]float64, len(orig))
		for i := range params {
			params[i] = val
		}
		return Update{Weight: weight, Experts: map[ExpertKey][]float64{key: params}}
	}
	n := Aggregate(global, []Update{mkUpdate(1, 1), mkUpdate(4, 2)})
	if n != 1 {
		t.Fatalf("updated %d experts", n)
	}
	got := global.ExpertAt(0, 1).FlattenTo(nil)
	want := (1.0*1 + 4.0*2) / 3
	for _, v := range got {
		if math.Abs(v-want) > 1e-12 {
			t.Fatalf("aggregated value %v want %v", v, want)
		}
	}
	// Untouched experts unchanged.
	if got := global.ExpertAt(0, 0); tensor.Norm2(got.W1.Data) == 0 {
		t.Fatal("untouched expert should keep its weights")
	}
}

func TestAggregateZeroWeightTreatedAsOne(t *testing.T) {
	g := tensor.NewRNG(2)
	global := moe.MustNew(smallModelCfg(), g)
	key := ExpertKey{Layer: 1, Expert: 0}
	params := make([]float64, len(global.ExpertAt(1, 0).FlattenTo(nil)))
	for i := range params {
		params[i] = 2
	}
	Aggregate(global, []Update{{Weight: 0, Experts: map[ExpertKey][]float64{key: params}}})
	if v := global.ExpertAt(1, 0).W1.At(0, 0); v != 2 {
		t.Fatalf("zero-weight update should still apply, got %v", v)
	}
}

func TestExtractUpdateRoundTrip(t *testing.T) {
	env := newTestEnv(t)
	tuning := [][]int{{0, 2}, {1}, {}}
	u := ExtractUpdate(env.Global, 3, 10, tuning)
	if u.Participant != 3 || u.Weight != 10 {
		t.Fatal("metadata wrong")
	}
	if len(u.Experts) != 3 {
		t.Fatalf("%d experts in update", len(u.Experts))
	}
	if UpdateBytes(u) <= 0 {
		t.Fatal("update bytes must be positive")
	}
}

// stubRounder's participants upload an expert-less update and spend a fixed
// time in one phase, so every round lasts exactly sec.
type stubRounder struct{ sec float64 }

func (s stubRounder) Name() string { return "stub" }
func (s stubRounder) Round(*Env, int, []int) Participant {
	return func(_ *Scratch, _, i int) SlotResult {
		return SlotResult{
			Update: Update{Participant: i},
			Phases: map[simtime.Phase]float64{simtime.PhaseFineTuning: s.sec},
		}
	}
}

// stubRound is env.RunRound over stubRounder, as a round function for Run.
func stubRound(env *Env, sec float64) func(context.Context, int) (RoundStats, error) {
	return func(_ context.Context, r int) (RoundStats, error) { return env.RunRound(stubRounder{sec: sec}, r) }
}

func TestRunRecordsCurve(t *testing.T) {
	env := newTestEnv(t)
	var recs []obs.Round
	clock, err := Run(context.Background(), env, stubRound(env, 3600), 0.999, nil, func(_ RoundStats, rd obs.Round) {
		recs = append(recs, rd)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != env.Cfg.MaxRounds+1 {
		t.Fatalf("%d curve points", len(recs))
	}
	if clock.Hours() != float64(env.Cfg.MaxRounds) {
		t.Fatalf("clock = %v hours", clock.Hours())
	}
	// Times must be non-decreasing, each round starting where the last ended.
	for i := 1; i < len(recs); i++ {
		if recs[i].Round != i || recs[i].StartSec != recs[i-1].EndSec || recs[i].EndSec < recs[i].StartSec {
			t.Fatalf("record %d = round %d over [%v, %v] after one ending at %v", i, recs[i].Round, recs[i].StartSec, recs[i].EndSec, recs[i-1].EndSec)
		}
	}
}

// TestRunFailedRoundIsDiscarded pins the loop's contract for a round that
// fails: a round whose context was canceled during it is discarded even when
// the round function returns no error, and a rejected update is counted once.
// Either way Run returns the error, observe sees only the baseline, and the
// clock does not advance.
func TestRunFailedRoundIsDiscarded(t *testing.T) {
	for _, tc := range []struct {
		name     string
		fail     func(cancel context.CancelFunc) error
		want     error
		rejected float64
	}{
		{"canceled", func(cancel context.CancelFunc) error { cancel(); return nil }, context.Canceled, 0},
		{"rejected", func(context.CancelFunc) error { return fmt.Errorf("fed: update from 0 %w", ErrRejected) }, ErrRejected, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := newTestEnv(t)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			reg := obs.NewRegistry()
			round := func(context.Context, int) (RoundStats, error) {
				err := tc.fail(cancel)
				return RoundStats{Phases: map[simtime.Phase]float64{simtime.PhaseFineTuning: 3600}}, err
			}
			var seen []int
			clock, err := Run(ctx, env, round, 0, reg, func(_ RoundStats, rd obs.Round) { seen = append(seen, rd.Round) })
			if !errors.Is(err, tc.want) {
				t.Fatalf("Run = %v, want %v", err, tc.want)
			}
			if !slices.Equal(seen, []int{0}) {
				t.Fatalf("observed rounds %v, want only the baseline", seen)
			}
			if clock.Seconds() != 0 {
				t.Fatalf("clock advanced to %v s by a failed round", clock.Seconds())
			}
			if n := reg.Counter(obs.MetricRejectedUpdates, "").Value(); n != tc.rejected {
				t.Fatalf("%s = %v, want %v", obs.MetricRejectedUpdates, n, tc.rejected)
			}
		})
	}
}

// TestRunBaselineNeverStops: a baseline already at target still runs round 1,
// and the first round whose score reaches target ends the run.
func TestRunBaselineNeverStops(t *testing.T) {
	env := newTestEnv(t)
	baseline := env.Evaluate()
	if baseline <= 0 {
		t.Fatalf("baseline score %v; the test needs a positive target", baseline)
	}
	var seen []int
	// stubRounder's updates carry no experts, so every round scores the
	// baseline again.
	if _, err := Run(context.Background(), env, stubRound(env, 1), baseline, nil, func(_ RoundStats, rd obs.Round) {
		seen = append(seen, rd.Round)
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(seen, []int{0, 1}) {
		t.Fatalf("observed rounds %v, want [0 1]", seen)
	}
}
