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
	qm := model.Clone()
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
// and steady-state profiling allocates neither a model nor activations.
func (p Profiler) RunOn(m *moe.Model, cfg moe.Config, samples []*data.Sample, ws *moe.Workspace) *Result {
	if ws == nil {
		ws = moe.NewWorkspace()
	}
	stats := moe.NewActivationStats(cfg, p.TrackSamples)
	tokens := 0
	for _, s := range samples {
		seq, _ := s.FullSequence()
		m.ForwardWS(ws, seq, stats, s.ID)
		tokens += len(seq)
	}
	return &Result{Stats: stats, Tokens: tokens, Bits: p.Bits}
}

// Seconds prices a profiling pass (quantize + forward passes) on device d.
func (r *Result) Seconds(d simtime.Device, cfg moe.Config) float64 {
	return d.QuantizeSeconds(cfg) + d.ProfileSeconds(cfg, r.Tokens, int(r.Bits))
}

// StaleScheduler implements §4.2's pipelining. Without it, round r must wait
// for profiling of the round-r model before merging (serial). With it,
// merging at round r consumes the profile of the round-(r-1) model, and the
// round-r profile is computed concurrently with server-side aggregation, so
// its latency is hidden up to the aggregation time.
type StaleScheduler struct {
	Enabled bool

	prev *Result // profile from the previous round (the stale one)
	cur  *Result // profile computed this round, visible next round
}

// Current returns the profiling result merging should use this round: the
// previous round's profile when staleness is enabled (falling back to the
// bootstrap profile in round 0), or the freshest profile otherwise. It is
// nil before the first Complete.
func (s *StaleScheduler) Current() *Result {
	if !s.Enabled {
		return s.cur
	}
	if s.prev != nil {
		return s.prev
	}
	return s.cur
}

// Complete installs the profile computed during this round. With staleness
// enabled the result becomes visible at the next round; without it,
// immediately.
func (s *StaleScheduler) Complete(r *Result) {
	if !s.Enabled {
		s.cur = r
		return
	}
	s.prev, s.cur = s.cur, r
}

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
