// Package profile implements Flux's quantization-based local activation
// profiling (§4.1) and the stale profiling pipeline (§4.2).
//
// A participant cannot run the full-precision model over its data just to
// measure expert activation — that is the cost profiling is supposed to
// avoid. Instead it builds a low-bit quantized clone once per round and runs
// cheap forward passes through it. Because quantization perturbs gate logits
// only slightly, the measured activation frequencies closely track the full
// model's (Figure 5), at a fraction of the compute (simtime.ProfileSeconds).
package profile

import (
	"repro/internal/data"
	"repro/internal/moe"
	"repro/internal/quant"
	"repro/internal/simtime"
)

// Profiler estimates expert activation from a quantized model clone.
type Profiler struct {
	// Bits is the quantization precision; participants pick it according to
	// their compute budget (lower bits = cheaper + noisier).
	Bits quant.Bits
	// TrackSamples records which samples reach which expert (the D_e sets
	// used for data selection and utility computation).
	TrackSamples bool
}

// Result is one profiling pass's output.
type Result struct {
	Stats  *moe.ActivationStats
	Tokens int
	Bits   quant.Bits
}

// Run quantizes model to p.Bits and measures activation statistics over the
// given samples. The returned stats are indexed by original expert id.
func (p Profiler) Run(model *moe.Model, samples []*data.Sample) *Result {
	qm := model.CloneInto(nil)
	moe.Quantize(qm, p.Bits)
	return p.RunOn(qm, model.Cfg, samples, nil)
}

// RunFull measures ground-truth activation statistics with the unquantized
// model. Experiments use it as the reference for estimation error.
func (p Profiler) RunFull(model *moe.Model, samples []*data.Sample) *Result {
	return p.RunOn(model, model.Cfg, samples, nil)
}

// RunOn measures activation statistics over samples with an already-prepared
// profiling model m (cfg describes the pre-merge expert layout, which sizes
// the stats), drawing forward-pass buffers from ws (nil allocates a private
// one). It only reads m's weights, so participant bodies all pass the
// round's shared fed.Env.QuantizedGlobal plus their own worker workspace,
// and steady-state profiling allocates neither a model nor activations. It
// is RunInto with no result to reuse.
func (p Profiler) RunOn(m *moe.Model, cfg moe.Config, samples []*data.Sample, ws *moe.Workspace) *Result {
	return p.RunInto(nil, m, cfg, samples, ws)
}

// RunInto is RunOn rebuilding r, a result nothing reads any more (such as
// StaleScheduler.Spare), in place and returning it; a nil r allocates a new
// one. Each sample is routed through every layer (moe.Model.ProfileWS), and
// neither the top layer's experts nor the head run, since profiling reads
// none of their outputs.
func (p Profiler) RunInto(r *Result, m *moe.Model, cfg moe.Config, samples []*data.Sample, ws *moe.Workspace) *Result {
	if ws == nil {
		ws = moe.NewWorkspace()
	}
	if r == nil {
		r = &Result{}
	}
	r.Stats = r.Stats.Reset(cfg, p.TrackSamples)
	r.Tokens, r.Bits = 0, p.Bits
	for _, s := range samples {
		seq, _ := s.FullSequence()
		m.ProfileWS(ws, seq, r.Stats, s.ID)
		r.Tokens += len(seq)
	}
	return r
}

// Seconds prices a profiling pass (quantize + forward passes) on device d.
func (r *Result) Seconds(d simtime.Device, cfg moe.Config) float64 {
	return d.QuantizeSeconds(cfg) + d.ProfileSeconds(cfg, r.Tokens, int(r.Bits))
}

// Seconds prices p's pass over samples on device d before it runs: the
// price of a Result reads only its token count and bit width, which the
// samples and p fix.
func (p Profiler) Seconds(d simtime.Device, cfg moe.Config, samples []*data.Sample) float64 {
	r := Result{Bits: p.Bits}
	for _, s := range samples {
		seq, _ := s.FullSequence()
		r.Tokens += len(seq)
	}
	return r.Seconds(d, cfg)
}

// StaleScheduler holds one participant's profiles for §4.2's pipelining: the
// latest completed one, which merging and assignment read, and a spare that
// nothing reads any more, for the next pass to rebuild in place
// (Profiler.RunInto). Without staleness, round r waits for profiling of the
// round-r model before merging (serial). With it, round r merges from the
// latest profile — the previous participation's — and its own pass runs
// after that read, concurrently with server-side aggregation, so its
// latency is hidden up to the aggregation time. A participant's first
// profile, the bootstrap, is always on the critical path.
type StaleScheduler struct {
	Enabled bool

	latest, spare *Result
}

// Latest returns the latest completed profile, or nil before the first
// Complete.
func (s *StaleScheduler) Latest() *Result { return s.latest }

// Spare returns the result the next pass may rebuild in place, or nil when
// there is none.
func (s *StaleScheduler) Spare() *Result { return s.spare }

// Complete installs r, typically the spare rebuilt, as the latest profile;
// the profile it replaces becomes the spare.
func (s *StaleScheduler) Complete(r *Result) { s.latest, s.spare = r, s.latest }

// Deferred reports whether this round's pass may run after the round has
// read Latest: staleness is enabled and the bootstrap profile exists.
// Otherwise the pass must complete first, and the round reads its result.
func (s *StaleScheduler) Deferred() bool { return s.Enabled && s.latest != nil }

// VisibleSeconds returns how much of a profiling pass costing profileSec
// contributes to the critical path of the round, given that aggregation and
// assignment take overlapSec. Pipelined profiling hides inside the overlap;
// the excess, if any, is exposed.
func (s *StaleScheduler) VisibleSeconds(profileSec, overlapSec float64) float64 {
	if !s.Enabled {
		return profileSec
	}
	if profileSec <= overlapSec {
		return 0
	}
	return profileSec - overlapSec
}
