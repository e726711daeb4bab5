package profile

import (
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/moe"
	"repro/internal/quant"
	"repro/internal/simtime"
	"repro/internal/tensor"
)

func fixture(t *testing.T) (*moe.Model, []*data.Sample) {
	t.Helper()
	cfg := moe.Uniform("prof-test", 64, 10, 16, 4, 6, 2, 64)
	m := moe.MustNew(cfg, tensor.Named("profile-test"))
	ds := data.Generate(data.GSM8K(), 64, 24, tensor.NewRNG(1))
	return m, ds.Samples
}

func TestProfilerEstimatesFrequencies(t *testing.T) {
	m, samples := fixture(t)
	p := Profiler{Bits: quant.Bits8}
	ref := p.RunFull(m, samples)
	est := p.Run(m, samples)
	if est.Tokens != ref.Tokens {
		t.Fatalf("token counts differ: %d vs %d", est.Tokens, ref.Tokens)
	}
	if err := est.Stats.EstimationError(ref.Stats); err > 0.35 {
		t.Fatalf("8-bit estimation error %v too large", err)
	}
}

func TestLowerBitsWorseOrEqual(t *testing.T) {
	m, samples := fixture(t)
	ref := Profiler{Bits: quant.Bits8}.RunFull(m, samples)
	e2 := Profiler{Bits: quant.Bits2}.Run(m, samples).Stats.EstimationError(ref.Stats)
	e8 := Profiler{Bits: quant.Bits8}.Run(m, samples).Stats.EstimationError(ref.Stats)
	if e8 > e2+1e-9 {
		t.Fatalf("8-bit error %v should not exceed 2-bit error %v", e8, e2)
	}
}

func TestTrackSamples(t *testing.T) {
	m, samples := fixture(t)
	p := Profiler{Bits: quant.Bits4, TrackSamples: true}
	res := p.Run(m, samples)
	var tracked int
	for e := 0; e < m.Cfg.ExpertsPerLayer[0]; e++ {
		tracked += len(res.Stats.SampleSet(0, e))
	}
	if tracked == 0 {
		t.Fatal("sample tracking recorded nothing")
	}
}

func TestProfileSecondsCheaperThanFull(t *testing.T) {
	m, samples := fixture(t)
	dev := simtime.ConsumerTiers()[1]
	res := Profiler{Bits: quant.Bits2}.Run(m, samples)
	profSec := res.Seconds(dev, m.Cfg)
	fullSec := dev.Seconds(simtime.ForwardFlops(m.Cfg, res.Tokens))
	if profSec >= fullSec {
		t.Fatalf("2-bit profiling (%v) should be cheaper than full forward (%v)", profSec, fullSec)
	}
}

// TestStaleSchedulerLatestAndSpare pins the scheduler's two slots: each
// Complete installs the latest profile and turns the one it replaces into
// the spare, and only the stale scheduler defers a pass, and only once a
// bootstrap profile exists.
func TestStaleSchedulerLatestAndSpare(t *testing.T) {
	for _, stale := range []bool{true, false} {
		s := &StaleScheduler{Enabled: stale}
		if s.Latest() != nil || s.Spare() != nil || s.Deferred() {
			t.Fatalf("stale=%v: a new scheduler holds a profile or defers the bootstrap", stale)
		}
		r0, r1, r2 := &Result{Tokens: 0}, &Result{Tokens: 1}, &Result{Tokens: 2}
		s.Complete(r0)
		if s.Latest() != r0 || s.Spare() != nil {
			t.Fatalf("stale=%v: the bootstrap profile is not the latest", stale)
		}
		if s.Deferred() != stale {
			t.Fatalf("stale=%v: Deferred after the bootstrap = %v", stale, s.Deferred())
		}
		s.Complete(r1)
		if s.Latest() != r1 || s.Spare() != r0 {
			t.Fatalf("stale=%v: after two passes latest/spare = %d/%d tokens", stale, s.Latest().Tokens, s.Spare().Tokens)
		}
		s.Complete(r2)
		if s.Latest() != r2 || s.Spare() != r1 {
			t.Fatalf("stale=%v: after three passes latest/spare = %d/%d tokens", stale, s.Latest().Tokens, s.Spare().Tokens)
		}
	}
	if v := (&StaleScheduler{}).VisibleSeconds(10, 3); v != 10 {
		t.Fatalf("disabled visible = %v want full cost", v)
	}
}

// TestProfilerSecondsBeforeTheRun holds the price of a pass before it runs
// to the price of its result.
func TestProfilerSecondsBeforeTheRun(t *testing.T) {
	m, samples := fixture(t)
	dev := simtime.ConsumerTiers()[1]
	p := Profiler{Bits: quant.Bits2}
	if got, want := p.Seconds(dev, m.Cfg, samples), p.Run(m, samples).Seconds(dev, m.Cfg); got != want {
		t.Fatalf("priced before the run %v, after %v", got, want)
	}
}

func TestVisibleSecondsOverlap(t *testing.T) {
	s := &StaleScheduler{Enabled: true}
	if v := s.VisibleSeconds(5, 10); v != 0 {
		t.Fatalf("fully hidden profile should cost 0, got %v", v)
	}
	if v := s.VisibleSeconds(15, 10); v != 5 {
		t.Fatalf("excess should be exposed, got %v", v)
	}
}

func TestStaleVsFreshErrorSmall(t *testing.T) {
	// §4.2's premise: activation frequencies move slowly between adjacent
	// model versions, so a one-round-stale profile is nearly as accurate.
	m, samples := fixture(t)
	p := Profiler{Bits: quant.Bits4}
	before := p.Run(m, samples)

	// Simulate one round of drift: small SGD updates on the experts.
	grads := moe.NewGrads(m, false)
	for _, s := range samples[:6] {
		seq, mask := s.FullSequence()
		m.ForwardBackwardWS(nil, seq, mask, grads, nil, -1)
	}
	m.ApplySGD(grads, 0.05)

	after := p.RunFull(m, samples)
	staleErr := before.Stats.EstimationError(after.Stats)
	if staleErr > 0.4 {
		t.Fatalf("stale profile error %v unexpectedly large", staleErr)
	}
}

// TestRunIntoReusesSpare drives a scheduler through several rounds with
// each profile rebuilt into the scheduler's spare, on one workspace, and
// holds every round's result to a fresh RunOn: same tokens, counts,
// attention sums and sample sets. Rebuilding the spare leaves the latest
// profile, the one a round reads while its pass runs, untouched.
func TestRunIntoReusesSpare(t *testing.T) {
	m, samples := fixture(t)
	p := Profiler{Bits: quant.Bits4, TrackSamples: true}
	for _, stale := range []bool{true, false} {
		s := &StaleScheduler{Enabled: stale}
		ws := moe.NewWorkspace()
		var last *Result // the result the previous round completed
		var lastTokens int
		var lastCounts []float64
		for round := range 5 {
			batch := samples[round*3 : round*3+9]
			spare := s.Spare()
			got := p.RunInto(spare, m, m.Cfg, batch, ws)
			if round > 0 && s.Latest() != last {
				t.Fatalf("round %d: rebuilding the spare clobbered the latest profile", round)
			}
			if spare != nil && got != spare {
				t.Fatalf("round %d: RunInto did not rebuild the spare", round)
			}
			want := p.RunOn(m, m.Cfg, batch, nil)
			if got.Tokens != want.Tokens || got.Stats.Tokens != want.Stats.Tokens {
				t.Fatalf("round %d: tokens %d/%v, fresh %d/%v", round, got.Tokens, got.Stats.Tokens, want.Tokens, want.Stats.Tokens)
			}
			for l := range want.Stats.Counts {
				for e := range want.Stats.Counts[l] {
					if got.Stats.Counts[l][e] != want.Stats.Counts[l][e] || got.Stats.AttnSum[l][e] != want.Stats.AttnSum[l][e] ||
						!slices.Equal(got.Stats.SampleSet(l, e), want.Stats.SampleSet(l, e)) {
						t.Fatalf("stale=%v round %d layer %d expert %d: rebuilt stats differ from a fresh run", stale, round, l, e)
					}
				}
			}
			if round > 0 && (last.Tokens != lastTokens || !slices.Equal(last.Stats.Counts[0], lastCounts)) {
				t.Fatalf("round %d: rebuilding the spare changed the latest profile", round)
			}
			s.Complete(got)
			last, lastTokens = got, got.Tokens
			lastCounts = append(lastCounts[:0], got.Stats.Counts[0]...)
		}
	}
}
