package flux

import (
	"context"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/fed"
	"repro/internal/flux/profile"
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
	snapshot := env.Global.CloneInto(nil)
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

// warmParticipantAllocs is what one warm participant call allocated when it
// was pinned (go1.24, linux/amd64).
const warmParticipantAllocs = 116

// TestProfilePassHandedBack pins when a participant's profiling pass runs,
// with and without stale profiling, over three rounds in which participants
// 0 and 1 take part every round and participant 3 first joins in round 2:
//   - a participant's first pass, the bootstrap, runs inside its function,
//     which reads its result, also for a member first picked after round 0;
//   - with stale profiling, a later round reads the previous round's profile,
//     and the function hands its own pass back (SlotResult.After) without
//     having touched the latest profile; the pass installs this round's;
//   - without it, every pass runs inside the function, first.
//
// After each round's function and handed-back pass the latest profile must
// be a fresh profile of this round's batch.
func TestProfilePassHandedBack(t *testing.T) {
	env := testEnv(t, "flux-handback")
	ws := &fed.Scratch{}
	for _, stale := range []bool{true, false} {
		opts := DefaultOptions(env.Cfg.MaxRounds)
		opts.StaleProfiling = stale
		r := New(opts, env.Cfg.Participants)
		prof := profile.Profiler{Bits: opts.ProfileBits, TrackSamples: true}
		fresh := func(i, round int) *profile.Result {
			return prof.RunOn(env.QuantizedGlobal(opts.ProfileBits), env.Global.Cfg, env.Batch(i, round), nil)
		}
		for round := range 3 {
			cohort := []int{0, 1}
			if round == 2 {
				cohort = append(cohort, 3)
			}
			part := r.Round(env, round, cohort)
			for slot, i := range cohort {
				p := &r.participants[i]
				read := p.sched.Latest()
				res := part(ws, slot, i)
				if stale && read != nil {
					if res.After == nil {
						t.Fatalf("round %d participant %d: a stale round ran its pass inline", round, i)
					}
					if p.sched.Latest() != read {
						t.Fatalf("round %d participant %d: the function installed its own profile", round, i)
					}
					if !sameProfile(read, fresh(i, round-1)) {
						t.Fatalf("round %d participant %d: the round read a profile other than round %d's", round, i, round-1)
					}
					res.After(ws)
				} else if res.After != nil {
					t.Fatalf("stale=%v round %d participant %d: a first or non-stale pass was handed back", stale, round, i)
				}
				if !sameProfile(p.sched.Latest(), fresh(i, round)) {
					t.Fatalf("stale=%v round %d participant %d: the latest profile is not this round's", stale, round, i)
				}
			}
		}
	}
}

// sameProfile reports whether two profiles hold the same tokens, counts,
// attention sums and sample sets.
func sameProfile(a, b *profile.Result) bool {
	if a.Tokens != b.Tokens || a.Bits != b.Bits || a.Stats.Tokens != b.Stats.Tokens {
		return false
	}
	for l := range b.Stats.Counts {
		for e := range b.Stats.Counts[l] {
			if a.Stats.Counts[l][e] != b.Stats.Counts[l][e] || a.Stats.AttnSum[l][e] != b.Stats.AttnSum[l][e] ||
				!slices.Equal(a.Stats.SampleSet(l, e), b.Stats.SampleSet(l, e)) {
				return false
			}
		}
	}
	return true
}

// TestWarmParticipantAllocs pins what a warm Flux participant allocates: one
// fleet member's assignment, merge plan, customized model, fine-tuning,
// probes and upload, and the profiling pass it hands back, on a worker
// scratch and participant state that earlier rounds grew to size. Profiling
// rebuilds the spare profile in place and is handed back as a func bound
// once per participant; the plan, the customized model and the gradients
// are rebuilt in the worker's scratch, and the probes run in its workspace.
// What remains is small, per call, and by count:
//   - cluster.FusedKMeans's index lists, centroids, counts and groups, and
//     the planner's group lists, budgets and per-layer variances;
//   - assign.Assign's expert lists, exploit map and sort swapper, and the
//     assignment's per-layer tuning lists;
//   - RNG splits: each derived stream seeds a fresh math/rand source
//     (assign, merge, pca, kmeans, spsa and one per probed expert);
//   - data selection's batch, relevant-sample map and sample-set slices;
//   - CustomizeInto's per-layer spec checks, ProbeExploreSPSA's index lists
//     and results, the update's map and the slot's phase ledger, which the
//     slot runner hands over as the result's Phases;
//   - the fan-out's one-slot result slice.
//
// The call runs through the engine's slot path (Env.RunSlots), as a round
// runs it.
func TestWarmParticipantAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's runtime allocates on its own")
	}
	env := testEnv(t, "flux-allocs")
	r := New(DefaultOptions(env.Cfg.MaxRounds), env.Cfg.Participants)
	for round := range 3 {
		runRound(t, env, r, round)
	}
	cohort := []int{1}
	part := r.Round(env, 3, cohort)
	run := func() {
		if _, err := env.RunSlots(part, cohort); err != nil {
			t.Fatal(err)
		}
	}
	run()
	got := testing.AllocsPerRun(20, run)
	if got != warmParticipantAllocs {
		t.Fatalf("warm participant allocates %v times per call, pinned at %v: a rise is a regression; after a fall, lower the pin", got, warmParticipantAllocs)
	}
}
