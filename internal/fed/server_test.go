package fed

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/moe"
	"repro/internal/simtime"
	"repro/internal/tensor"
)

func TestAggSpecValidate(t *testing.T) {
	for _, ok := range []AggSpec{
		{},
		{Mode: ModeSync},
		{Mode: ModeAsync, BufferK: 3, StalenessAlpha: 0.5},
		{Mode: ModeSemiSync, StalenessAlpha: 2},
	} {
		if err := ok.Validate(); err != nil {
			t.Errorf("%+v: unexpected error %v", ok, err)
		}
	}
	for _, bad := range []AggSpec{
		{Mode: "fedbuff"},
		{Mode: ModeAsync, BufferK: -1},
		{Mode: ModeAsync, StalenessAlpha: -0.5},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%+v: accepted", bad)
		}
	}
}

func TestConfigValidateAgg(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Agg = AggSpec{Mode: ModeAsync}
	cfg.Fleet = fleet.Spec{Deadline: 100, Drop: true}
	if err := cfg.Validate(); err == nil {
		t.Error("async + fleet drop policy accepted; these modes never drop")
	}
	cfg.Fleet = fleet.Spec{}
	cfg.Agg.BufferK = cfg.Participants + 1
	if err := cfg.Validate(); err == nil {
		t.Error("buffer_k larger than the fleet accepted")
	}
	cfg.Agg = AggSpec{Mode: ModeSemiSync}
	if err := cfg.Validate(); err == nil {
		t.Error("semisync without a fleet deadline accepted; it is the round clock")
	}
	cfg.Fleet = fleet.Spec{Deadline: 100}
	if err := cfg.Validate(); err != nil {
		t.Errorf("semisync with a wait deadline rejected: %v", err)
	}
}

func TestBufferFor(t *testing.T) {
	if got := (AggSpec{BufferK: 3}).bufferFor(10); got != 3 {
		t.Errorf("explicit K: got %d", got)
	}
	if got := (AggSpec{}).bufferFor(10); got != 5 {
		t.Errorf("default K for 10: got %d, want half the cohort", got)
	}
	if got := (AggSpec{}).bufferFor(1); got != 1 {
		t.Errorf("default K for 1: got %d, want 1", got)
	}
}

func TestStaleScale(t *testing.T) {
	if got := staleScale(0, 2); got != 1 {
		t.Errorf("fresh update scaled by %v", got)
	}
	if got := staleScale(3, 0); got != 1 {
		t.Errorf("alpha=0 scaled by %v", got)
	}
	if got := staleScale(1, 1); got != 0.5 {
		t.Errorf("s=1 alpha=1: got %v, want 0.5", got)
	}
	if got := staleScale(3, 2); got != 1.0/16 {
		t.Errorf("s=3 alpha=2: got %v, want 1/16", got)
	}
}

// asyncEnv hand-builds an environment for the event-driven core. Slot updates
// carry no expert parameters, so aggregation is a no-op on the (nil) model and
// the tests pin the accounting: versions, staleness, carry-over, phase time.
func asyncEnv(t *testing.T, spec AggSpec, fl fleet.Spec) *Env {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Participants = 4
	cfg.Agg = spec
	cfg.Fleet = fl
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return &Env{Cfg: cfg}
}

// mustFinish is finishRound for slots that must all pass the server's check.
func mustFinish(t *testing.T, env *Env, cohort []int, results []SlotResult) RoundStats {
	t.Helper()
	stats, err := env.finishRound(cohort, results)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// slot builds a SlotResult whose end-to-end time is sec seconds.
func slot(participant int, sec float64) SlotResult {
	return SlotResult{
		Update: Update{Participant: participant, Weight: 1},
		Phases: map[simtime.Phase]float64{simtime.PhaseFineTuning: sec},
	}
}

func TestFinishRoundAsync(t *testing.T) {
	env := asyncEnv(t, AggSpec{Mode: ModeAsync, BufferK: 2, StalenessAlpha: 1}, fleet.Spec{})
	cohort := []int{0, 1, 2, 3}

	// Arrival order by time: 1 (10s), 3 (20s), 0 (30s), 2 (40s). K=2 flushes
	// at the second and fourth arrivals.
	obs := mustFinish(t, env, cohort, []SlotResult{slot(0, 30), slot(1, 10), slot(2, 40), slot(3, 20)})
	phases := obs.Phases
	if obs.ModelVersion != 2 {
		t.Errorf("model version %d, want 2 flushes", obs.ModelVersion)
	}
	if obs.Selected != 4 || obs.Completed != 4 || obs.Dropped != 0 || obs.Pending != 0 {
		t.Errorf("census %+v, want 4 selected, 4 completed, nothing dropped or pending", obs)
	}
	// The second flush merged updates born at version 0 into version 1.
	if obs.Stale != 2 {
		t.Errorf("stale count %d, want the second flush's 2 updates", obs.Stale)
	}
	// Round time = the last flush's trigger (slot 2, 40s); no server seconds
	// here (zero payload bytes).
	if got := sortedPhaseSum(phases); got != 40 {
		t.Errorf("round seconds %v, want the last-flush trigger's 40", got)
	}
}

func TestFinishRoundAsyncCarryOver(t *testing.T) {
	env := asyncEnv(t, AggSpec{Mode: ModeAsync, BufferK: 2}, fleet.Spec{})
	cohort := []int{0, 1, 2}

	// Three arrivals, K=2: one flush, one leftover carried into round 2.
	obs := mustFinish(t, env, cohort, []SlotResult{slot(0, 10), slot(1, 20), slot(2, 30)})
	if obs.Completed != 2 || obs.Pending != 1 || obs.ModelVersion != 1 {
		t.Fatalf("round 1: %+v, want 2 completed, 1 pending, version 1", obs)
	}

	// Round 2: the carried update plus the first arrival complete a buffer.
	obs = mustFinish(t, env, cohort, []SlotResult{slot(0, 10), slot(1, 20), slot(2, 30)})
	if obs.Completed != 4 || obs.Pending != 0 || obs.ModelVersion != 3 {
		t.Fatalf("round 2: %+v, want the carried update aggregated (4 completed), version 3", obs)
	}
	// The carried update was born at version 0 and merged at version 1; the
	// second flush's two arrivals were born at round entry (version 1) and
	// merged at version 2 — one version behind after the intra-round flush.
	if obs.Stale != 3 {
		t.Errorf("round 2 stale %d, want the carried update plus the second flush's 2", obs.Stale)
	}
}

func TestFinishRoundAsyncForcedFlush(t *testing.T) {
	// A buffer that never fills still flushes once at the last arrival, so
	// every round advances the model and observers always see aggregation.
	env := asyncEnv(t, AggSpec{Mode: ModeAsync, BufferK: 4}, fleet.Spec{})
	obs := mustFinish(t, env, []int{0, 1}, []SlotResult{slot(0, 10), slot(1, 20)})
	phases := obs.Phases
	if obs.ModelVersion != 1 || obs.Completed != 2 || obs.Pending != 0 {
		t.Fatalf("forced flush: %+v, want one flush consuming both arrivals", obs)
	}
	if got := sortedPhaseSum(phases); got != 20 {
		t.Errorf("round seconds %v, want the last arrival's 20", got)
	}
}

func TestFinishRoundSemiSync(t *testing.T) {
	env := asyncEnv(t, AggSpec{Mode: ModeSemiSync, StalenessAlpha: 1}, fleet.Spec{Deadline: 25})
	cohort := []int{0, 1, 2}

	// Clock 25: slots 0 (10s) and 1 (20s) are on time, slot 2 (40s) is late.
	obs := mustFinish(t, env, cohort, []SlotResult{slot(0, 10), slot(1, 20), slot(2, 40)})
	phases := obs.Phases
	if obs.Completed != 2 || obs.Pending != 1 || obs.Dropped != 0 || obs.ModelVersion != 1 {
		t.Fatalf("round 1: %+v, want 2 on time, 1 carried, none dropped", obs)
	}
	// The round lasts exactly the clock: participant window 20s + 5s idle.
	if got := sortedPhaseSum(phases); got != 25 {
		t.Errorf("round seconds %v, want the 25s clock", got)
	}
	if got := phases[simtime.PhaseStraggler]; got != 5 {
		t.Errorf("straggler idle %v, want clock(25) - window(20) = 5", got)
	}

	// Round 2: the carried update (born v0) merges at v1 — stale.
	obs = mustFinish(t, env, cohort, []SlotResult{slot(0, 10), slot(1, 20), slot(2, 21)})
	if obs.Completed != 4 || obs.Pending != 0 || obs.Stale != 1 {
		t.Fatalf("round 2: %+v, want the carried update aggregated stale", obs)
	}
}

func TestFinishRoundSemiSyncAllLate(t *testing.T) {
	// Nothing flushable at the clock: the server waits past it for the single
	// fastest arrival; the rest carry over.
	env := asyncEnv(t, AggSpec{Mode: ModeSemiSync}, fleet.Spec{Deadline: 5})
	obs := mustFinish(t, env, []int{0, 1}, []SlotResult{slot(0, 30), slot(1, 10)})
	phases := obs.Phases
	if obs.Completed != 1 || obs.Pending != 1 {
		t.Fatalf("%+v, want only the fastest late arrival aggregated", obs)
	}
	if got := sortedPhaseSum(phases); got != 10 {
		t.Errorf("round seconds %v, want the fastest arrival's 10", got)
	}
	if _, ok := phases[simtime.PhaseStraggler]; ok {
		t.Errorf("no idle padding when the server runs past the clock: %v", phases)
	}
}

func TestFinishRoundObservesTraffic(t *testing.T) {
	env := asyncEnv(t, AggSpec{Mode: ModeAsync, BufferK: 1}, fleet.Spec{})
	results := []SlotResult{slot(0, 10), slot(1, 20)}
	results[0].Bytes, results[0].DownBytes = 100, 400
	results[1].Bytes, results[1].DownBytes = 300, 400
	obs := mustFinish(t, env, []int{0, 1}, results)
	if obs.UplinkBytes != 400 {
		t.Errorf("uplink %v, want every cohort member's upload (400)", obs.UplinkBytes)
	}
	if obs.DownlinkBytes != 800 {
		t.Errorf("downlink %v, want every cohort member's broadcast (800)", obs.DownlinkBytes)
	}
}

// TestFinishRoundArgumentCheck pins the entry check of the one reduction
// every round ends in: a cohort/results length mismatch or an empty
// cohort panics once, up front, naming both lengths — in every mode.
func TestFinishRoundArgumentCheck(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cohort  []int
		results []SlotResult
		want    string // substring of the panic message; "" = must not panic
	}{
		{"matched", []int{0, 1}, []SlotResult{slot(0, 1), slot(1, 2)}, ""},
		{"empty cohort", nil, nil, "got 0 results for a cohort of 0"},
		{"missing result", []int{0, 1}, []SlotResult{slot(0, 1)}, "got 1 results for a cohort of 2"},
		{"extra result", []int{0}, []SlotResult{slot(0, 1), slot(1, 2)}, "got 2 results for a cohort of 1"},
		{"results without cohort", nil, []SlotResult{slot(0, 1)}, "got 1 results for a cohort of 0"},
	} {
		for _, spec := range []AggSpec{{Mode: ModeSync}, {Mode: ModeAsync, BufferK: 1}} {
			t.Run(tc.name+"/"+spec.Mode, func(t *testing.T) {
				env := asyncEnv(t, spec, fleet.Spec{})
				defer func() {
					got := fmt.Sprint(recover())
					if tc.want == "" && got != "<nil>" {
						t.Errorf("unexpected panic: %s", got)
					}
					if !strings.Contains(got, tc.want) {
						t.Errorf("panic %q, want it to contain %q", got, tc.want)
					}
				}()
				env.finishRound(tc.cohort, tc.results)
			})
		}
	}
}

// corruptRounder's participants upload their full model with every expert's
// W1 doubled, so any aggregation would move the global; participant 1's
// slot is then corrupted.
type corruptRounder struct {
	corrupt func(s *Scratch, r *SlotResult)
}

func (corruptRounder) Name() string { return "corrupt" }

func (c corruptRounder) Round(env *Env, _ int, _ []int) Participant {
	return func(s *Scratch, _, i int) SlotResult {
		local := s.LocalClone(env.Global)
		for _, layer := range local.Layers {
			for _, e := range layer.Experts {
				e.W1.Scale(2)
			}
		}
		u := s.ExtractUpdate(local, i, 1, IdentityTuning(local.Cfg))
		s.Mark(simtime.PhaseFineTuning)
		s.Bill(1)
		res := SlotResult{Update: u, Bytes: UpdateBytes(u)}
		if i == 1 {
			c.corrupt(s, &res)
		}
		return res
	}
}

// TestRunRoundRejectsMalformedInProcessUpdates is the in-process twin of
// TestRunRoundRejectsMalformedUpdates: a Rounder whose participant 1 returns
// an update naming a layer the model does not have, a short parameter slice
// or a NaN, or a slot with a NaN phase or negative uplink bytes, must fail
// the round with an error naming participant 1, return no round report, and
// leave the global model bit for bit as it was and nothing buffered for the
// next round — in the synchronous and the buffered-async core alike.
func TestRunRoundRejectsMalformedInProcessUpdates(t *testing.T) {
	key := ExpertKey{Layer: 1, Expert: 2}
	for _, tc := range []struct {
		name    string
		corrupt func(s *Scratch, r *SlotResult)
	}{
		{"layer out of range", func(_ *Scratch, r *SlotResult) {
			r.Update.Experts[ExpertKey{Layer: 9, Expert: 0}] = r.Update.Experts[key]
		}},
		{"short parameter slice", func(_ *Scratch, r *SlotResult) { r.Update.Experts[key] = r.Update.Experts[key][:3] }},
		{"NaN parameter", func(_ *Scratch, r *SlotResult) { r.Update.Experts[key][5] = math.NaN() }},
		{"NaN phase", func(s *Scratch, _ *SlotResult) { s.Bill(math.NaN()) }},
		{"negative Bytes", func(_ *Scratch, r *SlotResult) { r.Bytes = -1 }},
	} {
		for _, mode := range []string{ModeSync, ModeAsync} {
			t.Run(tc.name+"/"+mode, func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Participants = 2
				cfg.Agg = AggSpec{Mode: mode, BufferK: 1}
				global := moe.MustNew(moe.Uniform("inproc-bad", 48, 12, 16, 2, 4, 2, 32), tensor.Named("inproc-bad"))
				snapshot := global.CloneInto(nil)
				env := &Env{Cfg: cfg, Global: global}
				stats, err := env.RunRound(corruptRounder{tc.corrupt}, 0)
				if err == nil || !strings.Contains(err.Error(), "update from 1 rejected") {
					t.Fatalf("RunRound error = %v, want participant 1's update rejected", err)
				}
				if !reflect.DeepEqual(stats, RoundStats{}) {
					t.Errorf("rejected round returned a report: %+v", stats)
				}
				for l, layer := range snapshot.Layers {
					for e, want := range layer.Experts {
						if !sameBits(global.Layers[l].Experts[e].FlattenTo(nil), want.FlattenTo(nil)) {
							t.Fatalf("layer %d expert %d moved although the round failed", l, e)
						}
					}
				}
				next, err := env.RunRound(corruptRounder{func(*Scratch, *SlotResult) {}}, 1)
				if err != nil {
					t.Fatal(err)
				}
				if next.Selected != 2 || next.Completed+next.Pending != 2 {
					t.Fatalf("the round after the rejected one carried an update in: %+v", next)
				}
			})
		}
	}
}

// TestCanonicalPhaseSumOrder pins the fold order of the synchronous barrier's
// totals: canonical execution order first, method-specific phases after in
// sorted order. The values make float addition order observable — a
// sorted-key fold of the same map returns 3, not 2.
func TestCanonicalPhaseSumOrder(t *testing.T) {
	const big = 1 << 53
	phases := map[simtime.Phase]float64{
		simtime.PhaseProfiling:  big,
		simtime.PhaseAssignment: 1, // absorbed: big+1 rounds back to big
		simtime.PhaseComm:       -big,
		"b-custom":              1,
		"a-custom":              1,
	}
	if got := canonicalPhaseSum(phases); got != 2 {
		t.Errorf("canonical fold %v, want 2", got)
	}
	if got := sortedPhaseSum(phases); got != 3 {
		t.Errorf("sorted fold %v, want 3 (the test values no longer tell the orders apart)", got)
	}
}
