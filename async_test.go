package flux_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	flux "repro"
)

const goldenAsyncPath = "testdata/golden_async.json"

// TestSyncModeBitIdentity pins the event-driven refactor's central promise:
// an explicit "sync" aggregation spec (like the zero value) routes every
// round through the Rounders' historical barrier reduction, reproducing the
// pre-refactor golden curves bit-for-bit. If this fails while
// TestGoldenConvergence passes, the sync path is leaking through the
// event-driven core.
func TestSyncModeBitIdentity(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden values are pinned on amd64; %s may fuse FMA and drift in the last bit", runtime.GOARCH)
	}
	blob, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	want := make(map[string][]string)
	//fluxvet:allow strictdecode golden file is a free-form name->curve map with no fixed schema to enforce
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("parsing %s: %v", goldenPath, err)
	}
	// Flux also runs at pool widths 1, 2 and 8: its rounds read profiling
	// passes the previous round handed back to the pool.
	runs := append([]string(nil), goldenMethods...)
	for _, w := range []int{1, 2, 8} {
		runs = append(runs, "flux/workers="+strconv.Itoa(w))
	}
	for _, name := range runs {
		method, workers, _ := strings.Cut(name, "/workers=")
		cfg := goldenConfig(method)
		cfg.Aggregation = flux.AggregationSpec{Mode: flux.AggSync}
		cfg.Workers, _ = strconv.Atoi(workers)
		e, err := flux.New(flux.WithConfig(cfg))
		if err != nil {
			t.Fatalf("%s: New: %v", name, err)
		}
		res, err := e.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
		wantCurve, ok := want[method]
		if !ok {
			t.Errorf("%s: no golden curve committed", method)
			continue
		}
		if len(res.Events) != len(wantCurve) {
			t.Errorf("%s: curve length %d, golden has %d", name, len(res.Events), len(wantCurve))
			continue
		}
		for r, ev := range res.Events {
			if got := strconv.FormatFloat(ev.Score, 'x', -1, 64); got != wantCurve[r] {
				t.Errorf("%s: round %d drifted under explicit sync mode: got %s, golden %s", name, r, got, wantCurve[r])
			}
		}
		if res.ModelVersion != 0 || res.Stale != 0 {
			t.Errorf("%s: sync mode reported event-driven accounting (version %d, stale %d)", name, res.ModelVersion, res.Stale)
		}
	}
}

// goldenAsyncArms are the seeded event-driven runs pinned by
// testdata/golden_async.json: two methods under each aggregation mode on a
// heterogeneous fleet, so staleness weighting, carry-over, and the round
// clock all exercise nontrivially.
func goldenAsyncArms() map[string]flux.Config {
	arms := make(map[string]flux.Config)
	for _, method := range []string{"fmd", "flux"} {
		async := goldenConfig(method)
		async.Seed = "golden-async-v1"
		async.Fleet = flux.FleetSpec{Distribution: "tiered", Seed: "golden"}
		async.Aggregation = flux.AggregationSpec{Mode: flux.AggAsync, BufferK: 2, StalenessAlpha: 0.5}
		arms[method+"/async"] = async

		semi := goldenConfig(method)
		semi.Seed = "golden-async-v1"
		semi.Fleet = flux.FleetSpec{Distribution: "tiered", Deadline: 20000, Seed: "golden"}
		semi.Aggregation = flux.AggregationSpec{Mode: flux.AggSemiSync, StalenessAlpha: 1}
		arms[method+"/semisync"] = semi
	}
	return arms
}

// TestGoldenAsyncConvergence pins the seeded per-round accuracy series of the
// event-driven aggregation modes against committed golden values, exactly as
// TestGoldenConvergence pins the synchronous path. Regenerate after an
// intentional change with
//
//	go test -run TestGoldenAsyncConvergence -update
func TestGoldenAsyncConvergence(t *testing.T) {
	if runtime.GOARCH != "amd64" && !*updateGolden {
		t.Skipf("golden values are pinned on amd64; %s may fuse FMA and drift in the last bit", runtime.GOARCH)
	}
	got := make(map[string][]string)
	//fluxvet:unordered arms run independently and results are keyed by name; order cannot affect them
	for name, cfg := range goldenAsyncArms() {
		e, err := flux.New(flux.WithConfig(cfg))
		if err != nil {
			t.Fatalf("%s: New: %v", name, err)
		}
		res, err := e.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
		var curve []string
		for _, ev := range res.Events {
			curve = append(curve, strconv.FormatFloat(ev.Score, 'x', -1, 64))
		}
		got[name] = curve
		if res.ModelVersion == 0 {
			t.Errorf("%s: no model version advanced; the event-driven core did not run", name)
		}
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenAsyncPath), 0o755); err != nil {
			t.Fatal(err)
		}
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenAsyncPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenAsyncPath)
		return
	}

	blob, err := os.ReadFile(goldenAsyncPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	want := make(map[string][]string)
	//fluxvet:allow strictdecode golden file is a free-form name->curve map with no fixed schema to enforce
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("parsing %s: %v", goldenAsyncPath, err)
	}
	//fluxvet:unordered per-arm assertions; only the t.Errorf interleaving varies with order
	for name, gotCurve := range got {
		wantCurve, ok := want[name]
		if !ok {
			t.Errorf("%s: no golden curve committed (regenerate with -update)", name)
			continue
		}
		if len(gotCurve) != len(wantCurve) {
			t.Errorf("%s: curve length %d, golden has %d", name, len(gotCurve), len(wantCurve))
			continue
		}
		for r := range wantCurve {
			if gotCurve[r] != wantCurve[r] {
				t.Errorf("%s: round %d score drifted: got %s, golden %s — if intentional, regenerate with -update",
					name, r, gotCurve[r], wantCurve[r])
			}
		}
	}
}

// TestAsyncRemovesStragglerIdle is the acceptance regression for the
// straggler scenarios: on the same long-tail fleet, buffered-async
// aggregation spends zero simulated seconds idle at a deadline, while the
// synchronous drop policy pays an idle tail every round — and async still
// aggregates every update (carry-over, never dropping).
func TestAsyncRemovesStragglerIdle(t *testing.T) {
	async := runScenarioFile(t, "async-buffer.json")
	drop := runScenarioFile(t, "straggler-drop.json")
	wait := runScenarioFile(t, "straggler-wait.json")

	var asyncIdle, dropIdle float64
	for _, ev := range async.Events[1:] {
		asyncIdle += ev.Phases[string(flux.PhaseStraggler)]
	}
	for _, ev := range drop.Events[1:] {
		dropIdle += ev.Phases[string(flux.PhaseStraggler)]
	}
	if asyncIdle != 0 {
		t.Errorf("async spent %v seconds in straggler-wait; the event queue never idles at a deadline", asyncIdle)
	}
	if dropIdle <= 0 {
		t.Fatalf("sync drop policy recorded no straggler idle (%v); the comparison is vacuous", dropIdle)
	}

	// Async never drops: the census conserves updates across carry-over.
	if async.Dropped != 0 {
		t.Errorf("async dropped %d updates", async.Dropped)
	}
	pending := async.Events[len(async.Events)-1].Pending
	if async.Selected != async.Completed+pending {
		t.Errorf("carry-over accounting broken: %d selected != %d completed + %d pending",
			async.Selected, async.Completed, pending)
	}
	// The K=8 buffer leaves the four slowest updates pending after round 1,
	// consumes them in round 2, and the pattern repeats — so the run ends
	// with a non-trivial buffer and stale merges actually happened.
	if async.Stale == 0 {
		t.Error("no stale merges recorded; carried updates should merge against a newer model version")
	}

	// Async finishes the round budget in less simulated time than waiting
	// for the straggler every round.
	if async.SimHours >= wait.SimHours {
		t.Errorf("async simulated %vh, want faster than the wait policy's %vh", async.SimHours, wait.SimHours)
	}

	// Seeded determinism end-to-end for the event-driven path.
	again := runScenarioFile(t, "async-buffer.json")
	if again.Final != async.Final || again.SimHours != async.SimHours || again.Stale != async.Stale {
		t.Fatalf("async-buffer not reproducible: final %v vs %v, sim %v vs %v, stale %d vs %d",
			again.Final, async.Final, again.SimHours, async.SimHours, again.Stale, async.Stale)
	}
}

// TestSemiSyncScenarioConserves pins the semisync shipped scenario: the round
// clock matches straggler-drop's deadline, but nothing is ever dropped — the
// straggler's update carries over and completes later.
func TestSemiSyncScenarioConserves(t *testing.T) {
	semi := runScenarioFile(t, "semisync-carryover.json")
	if semi.Dropped != 0 {
		t.Errorf("semisync dropped %d updates", semi.Dropped)
	}
	pending := semi.Events[len(semi.Events)-1].Pending
	if semi.Selected != semi.Completed+pending {
		t.Errorf("conservation broken: %d selected != %d completed + %d pending",
			semi.Selected, semi.Completed, pending)
	}
	if semi.Stale == 0 {
		t.Error("no stale merges; the carried straggler update should merge against a newer version")
	}
	for _, ev := range semi.Events[1:] {
		if ev.DownlinkBytes <= 0 {
			t.Errorf("round %d observed no downlink traffic", ev.Round)
		}
	}
}

// TestTCPRejectsAsync pins the documented limitation: the TCP wire protocol
// is synchronous, and the transport says so instead of silently running sync.
func TestTCPRejectsAsync(t *testing.T) {
	cfg := flux.DefaultConfig()
	cfg.Method = "fmd"
	cfg.Seed = "tcp-async"
	cfg.Participants = 3
	cfg.Rounds = 1
	cfg.Batch = 3
	cfg.LocalIters = 1
	cfg.DatasetSize = 90
	cfg.EvalSubset = 8
	cfg.PretrainSteps = 60
	cfg.Aggregation = flux.AggregationSpec{Mode: flux.AggAsync}
	e, err := flux.New(flux.WithConfig(cfg), flux.WithTransport(flux.TCP()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "synchronous") {
		t.Fatalf("TCP transport accepted an async config: %v", err)
	}
}

// TestAggregationValidation pins the SDK-level validation errors.
func TestAggregationValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []flux.Option
		want string
	}{
		{"unknown mode", []flux.Option{
			flux.WithAggregation(flux.AggregationSpec{Mode: "fedbuff"}),
		}, "aggregation mode"},
		{"drop policy", []flux.Option{
			flux.WithAggregation(flux.AggregationSpec{Mode: flux.AggAsync}),
			flux.WithFleetDistribution("longtail"),
			flux.WithDeadline(5000, true),
		}, "never drops"},
		{"semisync without clock", []flux.Option{
			flux.WithAggregation(flux.AggregationSpec{Mode: flux.AggSemiSync}),
		}, "deadline"},
		{"oversized buffer", []flux.Option{
			flux.WithAggregation(flux.AggregationSpec{Mode: flux.AggAsync, BufferK: 99}),
		}, "buffer_k"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := flux.New(tc.opts...)
			if err == nil {
				t.Fatal("invalid aggregation configuration accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// And the scenario schema carries the spec end-to-end.
	s, err := flux.ParseScenario([]byte(`{"name":"a","participants":4,"fleet":{"distribution":"tiered"},"aggregation":{"mode":"async","buffer_k":2,"staleness_alpha":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Config().Aggregation; got.Mode != flux.AggAsync || got.BufferK != 2 || got.StalenessAlpha != 1 {
		t.Fatalf("aggregation not carried through the scenario: %+v", got)
	}
	if _, err := flux.ParseScenario([]byte(`{"name":"b","aggregation":{"mode":"nope"}}`)); err == nil {
		t.Fatal("scenario with an unknown aggregation mode accepted")
	}
}
