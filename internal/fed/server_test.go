package fed

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/simtime"
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
	phases := env.FinishRound(cohort, []SlotResult{slot(0, 30), slot(1, 10), slot(2, 40), slot(3, 20)})
	obs := env.TakeRoundObs()
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
	env.FinishRound(cohort, []SlotResult{slot(0, 10), slot(1, 20), slot(2, 30)})
	obs := env.TakeRoundObs()
	if obs.Completed != 2 || obs.Pending != 1 || obs.ModelVersion != 1 {
		t.Fatalf("round 1: %+v, want 2 completed, 1 pending, version 1", obs)
	}

	// Round 2: the carried update plus the first arrival complete a buffer.
	env.FinishRound(cohort, []SlotResult{slot(0, 10), slot(1, 20), slot(2, 30)})
	obs = env.TakeRoundObs()
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
	phases := env.FinishRound([]int{0, 1}, []SlotResult{slot(0, 10), slot(1, 20)})
	obs := env.TakeRoundObs()
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
	phases := env.FinishRound(cohort, []SlotResult{slot(0, 10), slot(1, 20), slot(2, 40)})
	obs := env.TakeRoundObs()
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
	env.FinishRound(cohort, []SlotResult{slot(0, 10), slot(1, 20), slot(2, 21)})
	obs = env.TakeRoundObs()
	if obs.Completed != 4 || obs.Pending != 0 || obs.Stale != 1 {
		t.Fatalf("round 2: %+v, want the carried update aggregated stale", obs)
	}
}

func TestFinishRoundSemiSyncAllLate(t *testing.T) {
	// Nothing flushable at the clock: the server waits past it for the single
	// fastest arrival; the rest carry over.
	env := asyncEnv(t, AggSpec{Mode: ModeSemiSync}, fleet.Spec{Deadline: 5})
	phases := env.FinishRound([]int{0, 1}, []SlotResult{slot(0, 30), slot(1, 10)})
	obs := env.TakeRoundObs()
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
	env.FinishRound([]int{0, 1}, results)
	obs := env.TakeRoundObs()
	if obs.UplinkBytes != 400 {
		t.Errorf("uplink %v, want every cohort member's upload (400)", obs.UplinkBytes)
	}
	if obs.DownlinkBytes != 800 {
		t.Errorf("downlink %v, want every cohort member's broadcast (800)", obs.DownlinkBytes)
	}
}

// TestFinishRoundArgumentCheck pins the entry check of the one reduction
// every method author calls: a cohort/results length mismatch or an empty
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
				env.FinishRound(tc.cohort, tc.results)
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
