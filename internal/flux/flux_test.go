package flux

import (
	"context"
	"testing"

	"repro/internal/data"
	"repro/internal/fed"
	"repro/internal/moe"
	"repro/internal/obs"
	"repro/internal/simtime"
)

func testEnv(t *testing.T, seed string) *fed.Env {
	t.Helper()
	cfg := fed.DefaultConfig()
	cfg.Participants = 4
	cfg.DatasetSize = 80
	cfg.Batch = 4
	cfg.EvalSubset = 10
	cfg.MaxRounds = 4
	cfg.PretrainSteps = 150
	modelCfg := moe.Uniform("flux-test", 48, 16, 32, 3, 6, 2, 64)
	env, err := fed.NewEnv(modelCfg, data.GSM8K(), cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// runRound is env.RunRound for a round that must not fail.
func runRound(t *testing.T, env *fed.Env, r fed.Rounder, round int) map[simtime.Phase]float64 {
	t.Helper()
	stats, err := env.RunRound(r, round)
	if err != nil {
		t.Fatal(err)
	}
	return stats.Phases
}

func TestRoundRunsAndReportsPhases(t *testing.T) {
	env := testEnv(t, "flux-round")
	r := New(DefaultOptions(env.Cfg.MaxRounds), env.Cfg.Participants)
	if r.Name() != "flux" {
		t.Fatal("name wrong")
	}
	phases := runRound(t, env, r, 0)
	for _, p := range []simtime.Phase{simtime.PhaseProfiling, simtime.PhaseMerging,
		simtime.PhaseAssignment, simtime.PhaseFineTuning, simtime.PhaseComm} {
		if phases[p] < 0 {
			t.Fatalf("phase %s negative: %v", p, phases[p])
		}
	}
	if phases[simtime.PhaseFineTuning] <= 0 {
		t.Fatal("fine-tuning must take time")
	}
	// Round 0 pays the bootstrap profile on the critical path.
	if phases[simtime.PhaseProfiling] <= 0 {
		t.Fatal("round 0 must pay profiling")
	}
}

func TestStaleProfilingHidesCost(t *testing.T) {
	mk := func(stale bool, seed string) float64 {
		env := testEnv(t, seed)
		opts := DefaultOptions(env.Cfg.MaxRounds)
		opts.StaleProfiling = stale
		r := New(opts, env.Cfg.Participants)
		runRound(t, env, r, 0)
		phases := runRound(t, env, r, 1) // steady-state round
		return phases[simtime.PhaseProfiling]
	}
	staleProf := mk(true, "flux-stale")
	serialProf := mk(false, "flux-stale")
	if staleProf >= serialProf {
		t.Fatalf("stale profiling (%v) should expose less cost than serial (%v)", staleProf, serialProf)
	}
}

func TestFluxImprovesModel(t *testing.T) {
	env := testEnv(t, "flux-improves")
	testLoss := func() float64 {
		var s float64
		for _, smp := range env.Test {
			seq, mask := smp.FullSequence()
			s += env.Global.LossWS(nil, seq, mask)
		}
		return s / float64(len(env.Test))
	}
	before := testLoss()
	r := New(DefaultOptions(8), env.Cfg.Participants)
	for round := 0; round < 6; round++ {
		runRound(t, env, r, round)
	}
	after := testLoss()
	if after >= before {
		t.Fatalf("flux did not reduce held-out loss: %v -> %v", before, after)
	}
}

func TestFluxGlobalModelMutated(t *testing.T) {
	env := testEnv(t, "flux-mutates")
	snapshot := env.Global.Clone()
	r := New(DefaultOptions(4), env.Cfg.Participants)
	runRound(t, env, r, 0)
	changed := false
	for l := range env.Global.Layers {
		for e := range env.Global.Layers[l].Experts {
			if !env.Global.Layers[l].Experts[e].W1.Equal(snapshot.Layers[l].Experts[e].W1, 0) {
				changed = true
			}
		}
	}
	if !changed {
		t.Fatal("aggregation did not change the global model")
	}
	// Frozen components never move.
	if !env.Global.Embed.Equal(snapshot.Embed, 0) || !env.Global.Layers[0].Gate.Equal(snapshot.Layers[0].Gate, 0) {
		t.Fatal("embedding/gate must stay frozen during federated fine-tuning")
	}
}

func TestRunToTargetViaEngine(t *testing.T) {
	env := testEnv(t, "flux-engine")
	r := New(DefaultOptions(env.Cfg.MaxRounds), env.Cfg.Participants)
	round := func(_ context.Context, n int) (fed.RoundStats, error) { return env.RunRound(r, n) }
	points := 0
	clock, err := fed.Run(context.Background(), env, round, 0, nil, func(fed.RoundStats, obs.Round) { points++ }) // no target: run all rounds
	if err != nil {
		t.Fatal(err)
	}
	if points != env.Cfg.MaxRounds+1 {
		t.Fatalf("%d points", points)
	}
	if clock.Hours() <= 0 {
		t.Fatal("clock did not advance")
	}
	if clock.Breakdown()[simtime.PhaseFineTuning] <= 0 {
		t.Fatal("no fine-tuning time recorded")
	}
}

func TestDataSelectionTogglePreservesBatchSize(t *testing.T) {
	env := testEnv(t, "flux-datasel")
	for _, sel := range []bool{true, false} {
		opts := DefaultOptions(4)
		opts.DataSelection = sel
		r := New(opts, env.Cfg.Participants)
		phases := runRound(t, env.CloneForMethod("sel"), r, 0)
		if phases[simtime.PhaseFineTuning] <= 0 {
			t.Fatalf("selection=%v: training vanished", sel)
		}
	}
}
