package fed

import (
	"reflect"
	"testing"

	"repro/internal/fleet"
	"repro/internal/simtime"
)

func fleetEnv(t *testing.T, spec fleet.Spec) *Env {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Participants = 6
	cfg.Fleet = spec
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return &Env{Cfg: cfg}
}

func TestCohortDefaultIsEveryone(t *testing.T) {
	env := fleetEnv(t, fleet.Spec{})
	for _, r := range []int{0, 1, 17} {
		if got := env.Cohort(r); !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4, 5}) {
			t.Fatalf("round %d cohort %v, want the full fleet", r, got)
		}
	}
}

func TestCohortSelected(t *testing.T) {
	env := fleetEnv(t, fleet.Spec{
		Selector: fleet.SelectorSpec{Policy: "uniform", K: 2},
		Seed:     "fed-test",
	})
	a, b := env.Cohort(0), env.Cohort(0)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("cohort not idempotent: %v vs %v", a, b)
	}
	if len(a) != 2 {
		t.Fatalf("cohort %v, want size 2", a)
	}
}

func TestResolveStragglersNoDeadline(t *testing.T) {
	env := fleetEnv(t, fleet.Spec{})
	if keep := env.resolveStragglers([]float64{5, 100, 2}); keep != nil {
		t.Fatalf("no deadline must keep everyone: %v", keep)
	}
}

func TestResolveStragglersWaitPolicy(t *testing.T) {
	env := fleetEnv(t, fleet.Spec{Deadline: 10, Drop: false})
	if keep := env.resolveStragglers([]float64{5, 100, 2}); keep != nil {
		t.Fatalf("wait policy must keep everyone: %v", keep)
	}
}

func TestResolveStragglersDrop(t *testing.T) {
	env := fleetEnv(t, fleet.Spec{Deadline: 10, Drop: true})
	keep := env.resolveStragglers([]float64{5, 100, 2, 11})
	if !reflect.DeepEqual(keep, []bool{true, false, true, false}) {
		t.Fatalf("keep mask %v", keep)
	}
}

func TestResolveStragglersAllMissKeepsFastest(t *testing.T) {
	env := fleetEnv(t, fleet.Spec{Deadline: 10, Drop: true})
	keep := env.resolveStragglers([]float64{50, 30, 40})
	if !reflect.DeepEqual(keep, []bool{false, true, false}) {
		t.Fatalf("keep mask %v, want only the fastest", keep)
	}
}

func TestResolveStragglersAllWithinDeadline(t *testing.T) {
	env := fleetEnv(t, fleet.Spec{Deadline: 10, Drop: true})
	if keep := env.resolveStragglers([]float64{5, 7}); keep != nil {
		t.Fatalf("nobody within the deadline may be dropped: %v", keep)
	}
}

// TestAddStragglerWait pins the deadline accounting of the synchronous
// barrier: when the drop policy cut someone, the participant window lasts the
// full deadline, so the shortfall between the deadline and the kept cohort's
// barriered phase time becomes PhaseStraggler idle time — and nothing is
// added under the wait policy, with no drops, or when the window already
// exceeds the deadline.
func TestAddStragglerWait(t *testing.T) {
	finish := func(spec fleet.Spec, results ...SlotResult) map[simtime.Phase]float64 {
		return mustFinish(t, fleetEnv(t, spec), identityIndices(len(results)), results).Phases
	}
	drop := fleet.Spec{Deadline: 10, Drop: true}

	phases := finish(drop, slot(0, 6), slot(1, 100)) // one dropped
	if got := phases[simtime.PhaseStraggler]; got != 4 {
		t.Fatalf("idle %v, want deadline(10) - window(6) = 4", got)
	}

	// Regression: a slot may itself report straggler time (a retry, or a
	// phase the method attributes there). The idle tail must accumulate onto
	// it, not clobber it.
	own := slot(0, 6)
	own.Phases[simtime.PhaseStraggler] = 3
	phases = finish(drop, own, slot(1, 100))
	if got := phases[simtime.PhaseStraggler]; got != 4 {
		t.Fatalf("idle %v, want reported(3) + shortfall(10-9) = 4 (clobbered, not accumulated?)", got)
	}

	// Window past the deadline: drop decisions are per-participant, the
	// barriered window may still overshoot — no negative idle time.
	phases = finish(drop,
		SlotResult{Phases: map[simtime.Phase]float64{simtime.PhaseFineTuning: 8, simtime.PhaseComm: 1}},
		SlotResult{Update: Update{Participant: 1}, Phases: map[simtime.Phase]float64{simtime.PhaseFineTuning: 1, simtime.PhaseComm: 8}},
		slot(2, 100))
	if _, ok := phases[simtime.PhaseStraggler]; ok {
		t.Fatalf("window (16) past deadline must add no idle time: %v", phases)
	}

	// Nobody dropped: the server proceeded when the last update arrived.
	phases = finish(drop, slot(0, 5), slot(1, 7))
	if _, ok := phases[simtime.PhaseStraggler]; ok {
		t.Fatalf("no drop must add no idle time: %v", phases)
	}

	// Wait policy: observational deadline, never idle time.
	phases = finish(fleet.Spec{Deadline: 10, Drop: false}, slot(0, 6), slot(1, 100))
	if _, ok := phases[simtime.PhaseStraggler]; ok {
		t.Fatalf("wait policy must add no idle time: %v", phases)
	}
	if got := phases[simtime.PhaseFineTuning]; got != 100 {
		t.Fatalf("wait policy round lasts the straggler's 100s, got %v", got)
	}
}

// TestObserveCohort pins the synchronous census: Selected is the cohort,
// Completed the kept slots, Dropped the rest; uplink counts kept slots only,
// downlink the whole cohort.
func TestObserveCohort(t *testing.T) {
	env := fleetEnv(t, fleet.Spec{Deadline: 10, Drop: true})
	results := []SlotResult{slot(1, 5), slot(3, 100), slot(4, 7)}
	for i := range results {
		results[i].Bytes, results[i].DownBytes = 100, 400
	}
	obs := mustFinish(t, env, []int{1, 3, 4}, results)
	if obs.Selected != 3 || obs.Completed != 2 || obs.Dropped != 1 {
		t.Fatalf("census %+v", obs)
	}
	if obs.UplinkBytes != 200 || obs.DownlinkBytes != 1200 {
		t.Fatalf("traffic %+v, want uplink over kept slots (200) and downlink over the cohort (1200)", obs)
	}
	if obs.ModelVersion != 0 || obs.Stale != 0 || obs.Pending != 0 {
		t.Fatalf("sync mode reported event-driven accounting: %+v", obs)
	}
}

func TestConfigValidateFleet(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fleet = fleet.Spec{Selector: fleet.SelectorSpec{Policy: "nope"}}
	if err := cfg.Validate(); err == nil {
		t.Fatal("unknown selection policy accepted")
	}
	cfg.Fleet = fleet.Spec{Trace: &fleet.Trace{Rounds: [][]int{{cfg.Participants}}}}
	if err := cfg.Validate(); err == nil {
		t.Fatal("trace referencing an out-of-range participant accepted")
	}
}

// TestForEachOfSubset checks the cohort-aware pool visits exactly the listed
// participants, passing correct slots, at both worker settings.
func TestForEachOfSubset(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Participants = 8
		cfg.Workers = workers
		env := &Env{Cfg: cfg}
		cohort := []int{1, 4, 6}
		got := make([]int, len(cohort))
		if err := ForEachOf(env, cohort, func(_ *Scratch, slot, participant int) {
			got[slot] = participant
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, cohort) {
			t.Fatalf("workers=%d: visited %v, want %v", workers, got, cohort)
		}
	}
}
