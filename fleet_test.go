package flux_test

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	flux "repro"
)

func runScenarioFile(t *testing.T, name string) *flux.Result {
	t.Helper()
	s, err := flux.LoadScenario(filepath.Join("scenarios", name))
	if err != nil {
		t.Fatalf("loading %s: %v", name, err)
	}
	e, err := flux.New(s.Options()...)
	if err != nil {
		t.Fatalf("%s: New: %v", name, err)
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatalf("%s: Run: %v", name, err)
	}
	return res
}

// TestShippedScenariosLoad proves every scenario file in scenarios/ parses
// and validates — a broken shipped artifact fails the suite, not the user.
func TestShippedScenariosLoad(t *testing.T) {
	files, err := filepath.Glob("scenarios/*.json")
	if err != nil || len(files) < 4 {
		t.Fatalf("expected at least 4 shipped scenarios, got %v (err %v)", files, err)
	}
	for _, f := range files {
		if _, err := flux.LoadScenario(f); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}

// TestStragglerScenarioRegression is the seeded regression pinning the fleet
// subsystem's observable behavior: the shipped straggler scenarios change
// per-round simulated time and participation counts relative to the uniform
// baseline, with exact participation numbers pinned for the committed seed.
func TestStragglerScenarioRegression(t *testing.T) {
	uniform := runScenarioFile(t, "uniform-baseline.json")
	wait := runScenarioFile(t, "straggler-wait.json")
	drop := runScenarioFile(t, "straggler-drop.json")

	// The uniform fleet never drops anyone and each round selects everyone.
	for _, ev := range uniform.Events[1:] {
		if ev.Selected != 12 || ev.Completed != 12 || ev.Dropped != 0 {
			t.Fatalf("uniform round %d census %d/%d/%d, want 12/12/0",
				ev.Round, ev.Selected, ev.Completed, ev.Dropped)
		}
	}

	// Waiting for the 10x straggler makes every round slower than the
	// uniform fleet's.
	if wait.SimHours <= uniform.SimHours {
		t.Fatalf("straggler-wait simulated %vh, expected slower than uniform %vh",
			wait.SimHours, uniform.SimHours)
	}
	for _, ev := range wait.Events[1:] {
		if ev.Dropped != 0 || ev.Completed != 12 {
			t.Fatalf("wait policy round %d dropped %d participants", ev.Round, ev.Dropped)
		}
	}

	// The drop policy cuts the straggler each round — pinned exactly: the
	// longtail distribution puts its straggler class on participant 8 of
	// this 12-device fleet, and only it misses the 8000s deadline.
	for _, ev := range drop.Events[1:] {
		if ev.Selected != 12 || ev.Completed != 11 || ev.Dropped != 1 {
			t.Fatalf("drop round %d census %d/%d/%d, want 12/11/1",
				ev.Round, ev.Selected, ev.Completed, ev.Dropped)
		}
		if ev.Phases[string(flux.PhaseStraggler)] <= 0 {
			t.Fatalf("drop round %d: no straggler-wait phase recorded: %v", ev.Round, ev.Phases)
		}
	}
	if drop.Dropped != 3 || drop.Completed != 33 {
		t.Fatalf("drop totals %d/%d/%d, want 36/33/3", drop.Selected, drop.Completed, drop.Dropped)
	}

	// Dropping the straggler buys back most of the wait policy's time:
	// strictly between the uniform fleet and waiting.
	if !(drop.SimHours < wait.SimHours) {
		t.Fatalf("drop %vh not faster than wait %vh", drop.SimHours, wait.SimHours)
	}
	if !(drop.SimHours > uniform.SimHours) {
		t.Fatalf("drop %vh should still pay the deadline over uniform %vh", drop.SimHours, uniform.SimHours)
	}

	// Fewer updates aggregated means less uplink than waiting for everyone.
	if drop.UplinkBytes >= wait.UplinkBytes {
		t.Fatalf("drop uploaded %v bytes, want less than wait's %v", drop.UplinkBytes, wait.UplinkBytes)
	}

	// Seeded determinism end-to-end: the same scenario twice is bit-identical.
	again := runScenarioFile(t, "straggler-drop.json")
	if again.Final != drop.Final || again.SimHours != drop.SimHours || again.Dropped != drop.Dropped {
		t.Fatalf("straggler-drop not reproducible: final %v vs %v, sim %v vs %v",
			again.Final, drop.Final, again.SimHours, drop.SimHours)
	}
}

// TestInactiveFleetIsStrictSuperset pins the acceptance guarantee directly:
// an explicit uniform/all/no-deadline fleet spec produces a run bit-identical
// to the same configuration with no fleet spec at all — scores, uplink,
// simulated time, and phase maps.
func TestInactiveFleetIsStrictSuperset(t *testing.T) {
	base := flux.DefaultConfig()
	base.Method = "flux"
	base.Seed = "superset"
	base.Participants = 6
	base.Rounds = 2
	base.Batch = 3
	base.LocalIters = 1
	base.DatasetSize = 90
	base.EvalSubset = 8
	base.PretrainSteps = 60

	run := func(cfg flux.Config) *flux.Result {
		e, err := flux.New(flux.WithConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(base)

	withFleet := base
	withFleet.Fleet = flux.FleetSpec{Distribution: "uniform", Seed: "whatever"}
	fleet := run(withFleet)

	if len(plain.Events) != len(fleet.Events) {
		t.Fatalf("curve lengths differ: %d vs %d", len(plain.Events), len(fleet.Events))
	}
	for i := range plain.Events {
		a, b := plain.Events[i], fleet.Events[i]
		if a.Score != b.Score || a.UplinkBytes != b.UplinkBytes || a.SimHours != b.SimHours {
			t.Fatalf("round %d differs under uniform fleet: score %v/%v uplink %v/%v sim %v/%v",
				a.Round, a.Score, b.Score, a.UplinkBytes, b.UplinkBytes, a.SimHours, b.SimHours)
		}
		//fluxvet:unordered per-phase equality checks; order cannot affect the verdict
		for phase, v := range a.Phases {
			if b.Phases[phase] != v {
				t.Fatalf("round %d phase %q differs: %v vs %v", a.Round, phase, v, b.Phases[phase])
			}
		}
		if len(a.Phases) != len(b.Phases) {
			t.Fatalf("round %d phase sets differ: %v vs %v", a.Round, a.Phases, b.Phases)
		}
	}
	if plain.Final != fleet.Final {
		t.Fatalf("final scores differ: %v vs %v", plain.Final, fleet.Final)
	}
	// The uniform-fleet run reports its (full) participation census.
	for _, ev := range fleet.Events[1:] {
		if ev.Selected != 6 || ev.Completed != 6 {
			t.Fatalf("round %d census %d/%d, want 6/6", ev.Round, ev.Selected, ev.Completed)
		}
	}
}

func TestScenarioParsing(t *testing.T) {
	if _, err := flux.ParseScenario([]byte(`{"name":"x","bogus_field":1}`)); err == nil ||
		!strings.Contains(err.Error(), "bogus_field") {
		t.Fatalf("unknown field not rejected: %v", err)
	}
	if _, err := flux.ParseScenario([]byte(`{"description":"anonymous"}`)); err == nil {
		t.Fatal("scenario without a name accepted")
	}
	if _, err := flux.ParseScenario([]byte(`{"name":"bad","fleet":{"selector":{"policy":"nope"}}}`)); err == nil {
		t.Fatal("scenario with an unknown selection policy accepted")
	}
	if _, err := flux.ParseScenario([]byte(`{"name":"bad","rounds":-3}`)); err == nil ||
		!strings.Contains(err.Error(), "rounds") {
		t.Fatalf("negative rounds not rejected: %v", err)
	}
	if _, err := flux.ParseScenario([]byte(`{"name":"a","rounds":2} {"name":"b","rounds":-5} garbage`)); err == nil ||
		!strings.Contains(err.Error(), "after the JSON value") {
		t.Fatalf("data after the scenario not rejected: %v", err)
	}
	if _, err := flux.ParseScenario([]byte(`{"name":"bad","fleet":{"selector":{"k":8}}}`)); err == nil ||
		!strings.Contains(err.Error(), "policy") {
		t.Fatalf("selector k without a policy not rejected: %v", err)
	}
	s, err := flux.ParseScenario([]byte(`{"name":"mini","fleet":{"distribution":"tiered"}}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Config()
	if cfg.Seed != "scenario/mini" {
		t.Fatalf("default seed %q", cfg.Seed)
	}
	if cfg.Fleet.Distribution != "tiered" {
		t.Fatalf("fleet not carried: %+v", cfg.Fleet)
	}
}

func TestFleetOptionsCompose(t *testing.T) {
	e, err := flux.New(
		flux.WithFleetDistribution("longtail"),
		flux.WithSelector(flux.SelectorSpec{Policy: "uniform", K: 4}),
		flux.WithDeadline(5000, true),
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := e.Config()
	if cfg.Fleet.Distribution != "longtail" || cfg.Fleet.Selector.K != 4 ||
		cfg.Fleet.Deadline != 5000 || !cfg.Fleet.Drop {
		t.Fatalf("fleet options did not compose: %+v", cfg.Fleet)
	}
	// Zero-second deadline clears the drop flag rather than failing
	// validation later.
	e, err = flux.New(flux.WithDeadline(0, true))
	if err != nil {
		t.Fatal(err)
	}
	if e.Config().Fleet.Drop {
		t.Fatal("WithDeadline(0, true) left drop set")
	}
}

func TestFleetValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		opts []flux.Option
		want string
	}{
		{"unknown distribution", []flux.Option{flux.WithFleetDistribution("datacenter")}, "unknown distribution"},
		{"unknown policy", []flux.Option{flux.WithSelector(flux.SelectorSpec{Policy: "speed"})}, "unknown selection policy"},
		{"selector without k", []flux.Option{flux.WithSelector(flux.SelectorSpec{Policy: "uniform"})}, "cohort size"},
		{"negative deadline", []flux.Option{flux.WithFleet(flux.FleetSpec{Deadline: -1})}, "deadline"},
		{"bad profile", []flux.Option{flux.WithFleet(flux.FleetSpec{Profiles: []flux.FleetProfile{{Compute: -2}}})}, "compute multiplier"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := flux.New(tc.opts...)
			if err == nil {
				t.Fatal("invalid fleet configuration accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestTCPRejectsFleet pins the documented limitation: fleet simulation is
// in-process only, and the TCP transport says so instead of silently
// ignoring the spec.
func TestTCPRejectsFleet(t *testing.T) {
	cfg := flux.DefaultConfig()
	cfg.Method = "fmd"
	cfg.Seed = "tcp-fleet"
	cfg.Participants = 3
	cfg.Rounds = 1
	cfg.Batch = 3
	cfg.LocalIters = 1
	cfg.DatasetSize = 90
	cfg.EvalSubset = 8
	cfg.PretrainSteps = 60
	cfg.Fleet = flux.FleetSpec{Distribution: "longtail"}
	e, err := flux.New(flux.WithConfig(cfg), flux.WithTransport(flux.TCP()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "does not model fleets") {
		t.Fatalf("TCP transport accepted a fleet-active config: %v", err)
	}
}
