package experiments

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/fed"
	"repro/internal/fleet"
	"repro/internal/metrics"
)

// Staleness studies convergence under buffered-async aggregation as the
// staleness discount sharpens. A long-tail fleet makes the slowest devices
// lag several global-model versions behind; the server aggregates every
// BufferK arrivals and scales each update by 1/(1+s)^alpha, where s is how
// many versions the participant's base model trailed the one it merged into.
// alpha = 0 treats stale updates like fresh ones (maximum device utilization,
// maximum drift); large alpha suppresses them (approaching the synchronous
// protocol's per-round freshness at the cost of wasted work). The synchronous
// arm anchors the comparison.
func Staleness(o Options) *Table {
	rounds := 12
	if o.Quick {
		rounds = 6
	}
	cfg := trainConfig(o)
	cfg.MaxRounds = rounds
	// The study imposes its own fleet — staleness only arises when device
	// speeds spread — and therefore ignores o.Fleet/o.Agg. 12 participants so
	// round-robin assignment of the 9-profile longtail distribution actually
	// lands the straggler (profile index 8) even at quick scale.
	cfg.Participants = 12
	cfg.Fleet = fleet.Spec{Distribution: "longtail", Seed: "staleness"}
	p := data.GSM8K()

	runArm := func(cfg fed.Config) *methodRun {
		return runMethod(newEnv("llama", p, cfg, "staleness", "fmd"), newRounder("fmd", cfg), 0, p.TargetAcc, nil)
	}

	// curve renders the per-round score series; at quick scale the coarse
	// eval subset can tie final scores across alphas, and the full series
	// still shows where the arms diverge.
	curve := func(tr *metrics.Tracker) string {
		var b []byte
		for i, p := range tr.Points[1:] {
			if i > 0 {
				b = append(b, ' ')
			}
			b = append(b, fmt.Sprintf("%.2f", p.Score)...)
		}
		return string(b)
	}

	t := &Table{
		Title:  "Convergence vs staleness discount (buffered-async FMD, long-tail fleet, GSM8K)",
		Header: []string{"arm", "final", "best", "sim hours", "stale merges", "model version", "curve"},
		Notes: []string{
			"async arms buffer K = 2/3 of the fleet per aggregation; staleness s = global versions behind",
			"expected shape: async finishes the round budget in fewer simulated hours than sync;",
			"alpha trades drift (low alpha keeps stale mass) against wasted work (high alpha discards it)",
		},
	}

	sync := runArm(cfg)
	t.AddRow("sync", f3(sync.Final), f3(sync.Tracker.Best()), f2(sync.Hours), "0", "-", curve(sync.Tracker))

	for _, alpha := range []float64{0, 0.5, 1, 2} {
		acfg := cfg
		// K must not divide the cohort: leftovers then carry across rounds,
		// so flushes mix fresh and carried updates and the discount has a
		// differential effect (a uniformly-stale flush cancels under weight
		// normalization). 8 of 12 alternates a 4-update carry, as the shipped
		// async-buffer scenario does.
		acfg.Agg = fed.AggSpec{
			Mode:           fed.ModeAsync,
			BufferK:        2 * cfg.Participants / 3,
			StalenessAlpha: alpha,
		}
		run := runArm(acfg)
		t.AddRow(fmt.Sprintf("async alpha=%.1f", alpha),
			f3(run.Final), f3(run.Tracker.Best()), f2(run.Hours),
			fmt.Sprintf("%d", run.Stale), fmt.Sprintf("%d", run.ModelVersion), curve(run.Tracker))
	}
	return t
}
