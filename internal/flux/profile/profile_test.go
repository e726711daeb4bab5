package profile

import (
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

func TestStaleSchedulerDisabled(t *testing.T) {
	s := &StaleScheduler{Enabled: false}
	a := &Result{Tokens: 1}
	b := &Result{Tokens: 2}
	s.Complete(a)
	if s.Current() != a {
		t.Fatal("disabled scheduler should surface results immediately")
	}
	s.Complete(b)
	if s.Current() != b {
		t.Fatal("disabled scheduler should replace results immediately")
	}
	if v := s.VisibleSeconds(10, 3); v != 10 {
		t.Fatalf("disabled visible = %v want full cost", v)
	}
}

func TestStaleSchedulerOneRoundLag(t *testing.T) {
	s := &StaleScheduler{Enabled: true}
	r0 := &Result{Tokens: 0}
	r1 := &Result{Tokens: 1}
	r2 := &Result{Tokens: 2}
	s.Complete(r0)
	if s.Current() != r0 {
		t.Fatal("bootstrap profile should be visible immediately")
	}
	s.Complete(r1)
	if s.Current() != r0 {
		t.Fatal("round-1 profile must not be visible until round 2")
	}
	s.Complete(r2)
	if s.Current() != r1 {
		t.Fatalf("round 2 should see round-1 profile, got tokens=%d", s.Current().Tokens)
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
