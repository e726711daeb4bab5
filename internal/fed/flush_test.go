package fed

import (
	"runtime"
	"testing"

	"repro/internal/moe"
	"repro/internal/simtime"
	"repro/internal/tensor"
)

// runStaleFlushes drives two async rounds whose first flush mixes a carried
// (stale) update with fresh arrivals, and returns a checksum of the tuned
// expert. Regression for a real bug: Aggregate replaces expert parameters
// with the flush mean, so without the global-anchor blend the round's last
// flush clobbered earlier ones and the staleness discount had no effect on
// the model at all (every alpha produced bit-identical weights).
func runStaleFlushes(t *testing.T, alpha float64) float64 {
	t.Helper()
	sec := func(s float64) map[simtime.Phase]float64 {
		return map[simtime.Phase]float64{simtime.PhaseFineTuning: s}
	}
	cfg := DefaultConfig()
	cfg.Participants = 4
	cfg.Agg = AggSpec{Mode: ModeAsync, BufferK: 2, StalenessAlpha: alpha}
	m := moe.MustNew(moe.SimConfigLLaMATrain(), tensor.Named("probe"))
	env := &Env{Cfg: cfg, Global: m}
	tuning := make([][]int, m.Cfg.Layers())
	for l := range tuning {
		tuning[l] = []int{0}
	}
	mk := func(p int, shift float64) Update {
		c := m.CloneInto(nil)
		ex := c.ExpertAt(0, 0)
		flat := ex.FlattenTo(nil)
		for i := range flat {
			flat[i] += shift
		}
		ex.LoadFlat(flat)
		return ExtractUpdate(c, p, 1, tuning)
	}
	// Round 1: three arrivals, K=2 — flush at the second, slot 2 carries over.
	mustFinish(t, env, []int{0, 1, 2}, []SlotResult{
		{Update: mk(0, 0.1), Phases: sec(10)},
		{Update: mk(1, 0.2), Phases: sec(20)},
		{Update: mk(2, 0.9), Phases: sec(30)},
	})
	// Round 2: the carried update (now stale) mixes with fresh arrivals in
	// the first flush; a second flush follows.
	obs := mustFinish(t, env, []int{0, 1, 2}, []SlotResult{
		{Update: mk(0, 0.3), Phases: sec(10)},
		{Update: mk(1, 0.4), Phases: sec(20)},
		{Update: mk(2, 0.5), Phases: sec(30)},
	})
	if obs.Stale == 0 {
		t.Fatalf("no stale merges in the mixed round: %+v", obs)
	}
	var sum float64
	for _, v := range m.ExpertAt(0, 0).FlattenTo(nil) {
		sum += v
	}
	return sum
}

func TestFlushStalenessDiscountEffective(t *testing.T) {
	a0 := runStaleFlushes(t, 0)
	a2 := runStaleFlushes(t, 2)
	if a0 == a2 {
		t.Errorf("global model bit-identical across staleness alphas (%x); the discount never reached Aggregate", a0)
	}
}

// TestFlushBlendsIntoGlobal pins the anchor semantics directly: a flush of
// one update out of a cohort of two moves each parameter halfway from the
// global value to the update (η = |buffer|/cohort = 1/2), instead of
// replacing it outright.
func TestFlushBlendsIntoGlobal(t *testing.T) {
	m := moe.MustNew(moe.SimConfigLLaMATrain(), tensor.Named("blend"))
	env := &Env{Cfg: DefaultConfig(), Global: m}
	env.Cfg.Agg = AggSpec{Mode: ModeAsync, BufferK: 1}
	before := m.ExpertAt(0, 0).FlattenTo(nil)

	c := m.CloneInto(nil)
	ex := c.ExpertAt(0, 0)
	flat := ex.FlattenTo(nil)
	for i := range flat {
		flat[i] += 1
	}
	ex.LoadFlat(flat)
	u := ExtractUpdate(c, 0, 1, [][]int{{0}})

	sr := serverRound{}
	env.flush([]pendingUpdate{{update: u, birth: 0}}, 2, &sr, 0, 0)

	after := m.ExpertAt(0, 0).FlattenTo(nil)
	for i := range after {
		want := before[i] + 0.5
		if diff := after[i] - want; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("param %d: got %v, want the halfway blend %v (before %v)", i, after[i], want, before[i])
		}
	}
}

// TestAsyncFlushAnchorAllocs pins what the async core allocates per round
// once warm: two flushes of one update each against a cohort of two, each
// anchoring the three experts its update names at the global parameters.
// The anchor is flattened into a buffer the env keeps, so a round allocates
// far less than one anchored expert's parameters; flattening into fresh
// slices allocated six experts' worth per round.
func TestAsyncFlushAnchorAllocs(t *testing.T) {
	m := moe.MustNew(moe.SimConfigLLaMATrain(), tensor.Named("anchor-allocs"))
	cfg := DefaultConfig()
	cfg.Participants = 2
	cfg.Agg = AggSpec{Mode: ModeAsync, BufferK: 1}
	env := &Env{Cfg: cfg, Global: m}
	tuning := [][]int{{0, 1}, {2}}
	results := make([]SlotResult, 2)
	for p := range results {
		results[p] = slot(p, float64(10+p))
		results[p].Update = ExtractUpdate(m, p, 1, tuning)
	}
	round := func() {
		if stats := mustFinish(t, env, []int{0, 1}, results); stats.ModelVersion == 0 || stats.Pending != 0 {
			t.Fatalf("want two flushes and nothing carried, got %+v", stats)
		}
	}
	round()
	const rounds = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		round()
	}
	runtime.ReadMemStats(&after)
	perRound := (after.TotalAlloc - before.TotalAlloc) / rounds
	if expert := uint64(8 * m.ExpertAt(0, 0).Params()); perRound >= expert {
		t.Fatalf("a warm async round allocates %d bytes, one anchored expert is %d", perRound, expert)
	}
}
