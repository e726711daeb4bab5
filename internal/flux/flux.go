// Package flux is the core contribution of the reproduction: the Flux
// federated fine-tuning runner, wiring together quantization-based stale
// profiling (§4), adaptive merging of non-tuning experts (§5), and dynamic
// expert role assignment with exploration–exploitation (§6) into the round
// loop of the fed engine.
//
// §4.2's overlap happens in wall time too, not only in the simulated
// clock: a participant merges and assigns from its previous participation's
// profile, so it hands the round's own profiling pass back to the worker
// pool (fed.SlotResult.After), which runs it beside the other participants
// and before the aggregation; a TCP client runs it after sending its update.
package flux

import (
	"fmt"
	"math"

	"repro/internal/data"
	"repro/internal/fed"
	"repro/internal/flux/assign"
	"repro/internal/flux/merge"
	"repro/internal/flux/profile"
	"repro/internal/moe"
	"repro/internal/quant"
	"repro/internal/simtime"
	"repro/internal/tensor"
)

// Options configures a Flux runner.
type Options struct {
	// ProfileBits is the quantization precision for local profiling.
	ProfileBits quant.Bits
	// StaleProfiling pipelines profiling with aggregation (§4.2). Disabling
	// it is the Figure 14 ablation arm.
	StaleProfiling bool
	// Merge configures the non-tuning expert merging module.
	Merge merge.Options
	// Eps schedules the exploitation fraction of Algorithm 1.
	Eps assign.EpsilonSchedule
	// SPSAProbes and SPSASigma configure forward-only gradient estimation
	// for exploration experts.
	SPSAProbes int
	SPSASigma  float64
	// SPSASeqs is how many local sequences each gradient probe evaluates.
	SPSASeqs int
	// DataSelection prefers samples routed through the tuning experts
	// (the D_e sets from profiling) when forming local batches.
	DataSelection bool
}

// DefaultOptions returns the configuration used in the paper-shaped
// experiments.
func DefaultOptions(rounds int) Options {
	return Options{
		ProfileBits:    quant.Bits4,
		StaleProfiling: true,
		Merge:          merge.DefaultOptions(),
		Eps:            assign.DefaultDynamicEpsilon(rounds),
		SPSAProbes:     1,
		SPSASigma:      0.02,
		SPSASeqs:       1,
		DataSelection:  true,
	}
}

// Runner executes Flux rounds. Its state lives with the participants: one
// participant value per fleet member.
type Runner struct {
	Opts Options

	participants []participant
}

// participant is what one fleet member carries from round to round: §4.2's
// stale-profiling scheduler, whose profile merging and assignment consume,
// and §6's utility table, built from the first profile and refreshed by
// backpropagation (exploited experts) and SPSA probes (explored ones). Only
// that member's participant function, and the profiling pass it hands back
// (pass, run by after), touch it.
type participant struct {
	sched profile.StaleScheduler
	table *assign.UtilityTable

	pass  profilePass
	after func(*fed.Scratch) // p.runPass, bound once so a round allocates no closure
}

// profilePass is a round's profiling pass over batch on the quantized
// global model qm, waiting to run.
type profilePass struct {
	env   *fed.Env
	prof  profile.Profiler
	qm    *moe.Model
	batch []*data.Sample
}

// New creates a Flux runner for an environment with n participants.
func New(opts Options, n int) *Runner {
	r := &Runner{Opts: opts, participants: make([]participant, n)}
	for i := range r.participants {
		p := &r.participants[i]
		p.sched.Enabled = opts.StaleProfiling
		p.after = p.runPass
	}
	return r
}

// profile runs the pending pass into the scheduler's spare result on ws and
// installs it as the latest profile.
func (p *participant) profile(ws *moe.Workspace) {
	j := p.pass
	p.pass = profilePass{}
	p.sched.Complete(j.prof.RunInto(p.sched.Spare(), j.qm, j.env.Global.Cfg, j.batch, ws))
}

// runPass is the pending pass as work handed back to the pool
// (fed.SlotResult.After), on the scratch of whichever worker runs it.
func (p *participant) runPass(s *fed.Scratch) {
	s.Mark(simtime.PhaseProfiling)
	p.profile(s.Workspace())
}

// Name implements fed.Rounder.
func (r *Runner) Name() string { return "flux" }

// Round implements fed.Rounder: it prepares one Flux round for the cohort —
// the round's ε, per-participant RNG streams split serially in cohort order,
// and the quantized profiling model every participant shares read-only — and
// returns the participant function: assign, merge, fine-tune, probe and
// upload from the latest profile, then profile this round's model. That
// pass runs first only for a participant's bootstrap profile and without
// stale profiling; otherwise nothing in the round reads it, and the function
// hands it back to run beside the rest of the round (§4.2).
func (r *Runner) Round(env *fed.Env, round int, cohort []int) fed.Participant {
	cfg := env.Global.Cfg
	eps := r.Opts.Eps.Epsilon(round)

	// Splitting advances env.RNG, so the per-participant streams must be
	// derived in cohort order before any work is dispatched. Labels carry
	// the participant index, so with the default all-participate cohort the
	// streams are exactly the historical per-participant ones.
	rngs := make([]*tensor.RNG, len(cohort))
	for slot, i := range cohort {
		rngs[slot] = env.RNG.Split(fmt.Sprintf("p%d/r%d", i, round))
	}

	// Every participant profiles the same quantized global model, so it is
	// built once, before the fan-out, and only read from then on.
	qm := env.QuantizedGlobal(r.Opts.ProfileBits)

	return func(ws *fed.Scratch, slot, i int) fed.SlotResult {
		p := &r.participants[i]
		dev := env.Devices[i]
		rng := rngs[slot]
		mws := ws.Workspace()

		// --- Profiling (§4): quantized, stale-pipelined; billed last. ---
		ws.Mark(simtime.PhaseProfiling)
		prof := profile.Profiler{Bits: r.Opts.ProfileBits, TrackSamples: true}
		shardSeqs := env.Batch(i, round)
		profSec := prof.Seconds(dev, cfg, shardSeqs)
		p.pass = profilePass{env: env, prof: prof, qm: qm, batch: shardSeqs}
		var after func(*fed.Scratch)
		if p.sched.Deferred() {
			after = p.after // read only from the next participation on
		} else {
			p.profile(mws) // the bootstrap, or Figure 14's serial arm
		}
		stats := p.sched.Latest().Stats

		if p.table == nil {
			p.table = assign.NewUtilityTable(stats)
		}

		// --- Expert role assignment (§6). ---
		ws.Mark(simtime.PhaseAssignment)
		capacity, tune := env.Budgets(i)
		a := assign.Assign(p.table, cfg.ExpertsPerLayer, tune, eps, rng.Split("assign"))
		tuning := a.Tuning(cfg.Layers())
		assignSec := dev.Seconds(assignFlops(env.TotalExperts()))
		ws.Bill(assignSec)

		// --- Adaptive merging of non-tuning experts (§5). ---
		ws.Mark(simtime.PhaseMerging)
		nonBudget := capacity - len(a.Exploit)
		if nonBudget < cfg.Layers() {
			nonBudget = cfg.Layers()
		}
		plan, err := ws.Planner().Build(env.Global, stats, tuning, nonBudget, r.Opts.Merge, rng.Split("merge"))
		if err != nil {
			// A malformed plan is a programming error, not a runtime state.
			panic(fmt.Sprintf("flux: merge plan: %v", err))
		}
		local, err := ws.Customize(env.Global, plan.Specs)
		if err != nil {
			panic(fmt.Sprintf("flux: customize: %v", err))
		}
		mergeSec := dev.Seconds(mergeFlops(env.TotalExperts(), r.Opts.Merge))
		ws.Bill(mergeSec)

		// --- Local fine-tuning (§3) with data selection (§4.1). ---
		ws.Mark(simtime.PhaseFineTuning)
		batch := r.selectBatch(env, i, round, stats, a)
		grads := ws.Grads(local)
		tokens := 0
		for it := 0; it < env.Cfg.LocalIters; it++ {
			for _, s := range batch {
				seq, mask := s.FullSequence()
				local.ForwardBackwardWS(mws, seq, mask, grads, nil, -1)
				tokens += len(seq)
			}
			p.refreshUtilities(local, grads, a)
			local.ApplySGD(grads, env.Cfg.LR/float64(len(batch)))
		}
		tuneFrac := float64(len(a.Exploit)) / float64(max(1, env.TotalExperts()))
		trainSec := dev.Seconds(simtime.TrainFlops(cfg, tokens, tuneFrac))

		// --- Forward-only gradient probes for exploration experts (§6.2).---
		ws.Mark(simtime.PhaseAssignment) // probes are priced under assignment
		spsaSec := p.probeExploration(r.Opts, local, mws, batch, a, dev, cfg, rng.Split("spsa"))
		ws.Bill(spsaSec)

		// Fine-tuning is billed as local time (merging + tuning + probes) net
		// of merging, the rounded difference the goldens pin, so the probes
		// are billed a second time here: the double count item 1 of
		// ROADMAP.md removes by billing trainSec alone.
		ws.Mark(simtime.PhaseFineTuning)
		ws.Bill(mergeSec + trainSec + spsaSec - mergeSec)

		// --- Upload tuning expert parameters. ---
		ws.Mark(simtime.PhaseComm)
		u := ws.ExtractUpdate(local, i, float64(len(env.Shards[i])), tuning)
		bytes := fed.UpdateBytes(u)
		down := float64(capacity) * simtime.ExpertBytes(cfg) // model sync down
		commSec := dev.UplinkSeconds(bytes) + dev.DownlinkSeconds(down)
		ws.Bill(commSec)

		// Aggregation + assignment happen server-side while the next
		// profile is computed locally; stale profiling hides the overlap.
		visibleProf := p.sched.VisibleSeconds(profSec, commSec+assignSec)
		if round == 0 {
			visibleProf = profSec // bootstrap profile is on the critical path
		}
		ws.Mark(simtime.PhaseProfiling)
		ws.Bill(visibleProf)
		return fed.SlotResult{After: after, Update: u, Bytes: bytes, DownBytes: down}
	}
}

// selectBatch applies §4.1's data selection: prefer local samples whose
// tokens were routed through this round's tuning experts.
func (r *Runner) selectBatch(env *fed.Env, i, round int, stats *moe.ActivationStats, a assign.Assignment) []*data.Sample {
	base := env.Batch(i, round)
	if !r.Opts.DataSelection {
		return base
	}
	relevant := make(map[int]bool)
	for _, k := range a.Exploit {
		for _, id := range stats.SampleSet(k.Layer, k.Expert) {
			relevant[id] = true
		}
	}
	if len(relevant) == 0 {
		return base
	}
	shard := env.Shards[i]
	picked := make([]*data.Sample, 0, len(base))
	for off := 0; off < len(shard) && len(picked) < len(base); off++ {
		s := shard[(round*len(base)+off)%len(shard)]
		if relevant[s.ID] {
			picked = append(picked, s)
		}
	}
	// Top up with the default rotation if too few relevant samples exist.
	for off := 0; off < len(shard) && len(picked) < len(base); off++ {
		s := shard[(round*len(base)+off)%len(shard)]
		if !relevant[s.ID] {
			picked = append(picked, s)
		}
	}
	return picked
}

// refreshUtilities folds real backpropagation gradients of exploited
// experts into the participant's utility table (Eq. 3).
func (p *participant) refreshUtilities(local *moe.Model, grads *moe.Grads, a assign.Assignment) {
	for _, k := range a.Exploit {
		pos := local.Layers[k.Layer].Routing[k.Expert]
		c := grads.TokenGradCount[k.Layer][pos]
		if c == 0 {
			continue
		}
		p.table.Set(assign.Key{Layer: k.Layer, Expert: k.Expert},
			assign.Utility(c, grads.AvgTokenGradNorm(k.Layer, pos)))
	}
}

// probeExploration runs SPSA gradient probes for exploration experts and
// updates their utilities in the participant's table, returning the
// simulated probe cost.
func (p *participant) probeExploration(opts Options, local *moe.Model, mws *moe.Workspace, batch []*data.Sample, a assign.Assignment, dev simtime.Device, cfg moe.Config, rng *tensor.RNG) float64 {
	if len(a.Explore) == 0 || opts.SPSAProbes == 0 || len(batch) == 0 {
		return 0
	}
	n := opts.SPSASeqs
	if n > len(batch) {
		n = len(batch)
	}
	seqs := make([][]int, 0, n)
	masks := make([][]bool, 0, n)
	tokens := 0
	for _, s := range batch[:n] {
		seq, mask := s.FullSequence()
		seqs = append(seqs, seq)
		masks = append(masks, mask)
		tokens += len(seq)
	}
	// All explore experts are probed off one shared baseline pass per
	// sequence (the model is restored exactly after each probe, so the
	// unperturbed activations never change); the simulated probe cost below
	// already bills a single shared baseline.
	results := assign.ProbeExploreSPSA(local, mws, a.Explore, seqs, masks, opts.SPSAProbes, opts.SPSASigma, func(k assign.Key) *tensor.RNG {
		return rng.Split(fmt.Sprintf("e%d.%d", k.Layer, k.Expert))
	})
	for j, k := range a.Explore {
		// |D_e| for exploration experts comes from profiling counts; use the
		// per-token norm estimate directly with the probe token count.
		p.table.Set(k, assign.Utility(float64(tokens), results[j].Norm/float64(max(1, tokens))))
	}
	// Each probe costs one forward pass over the probe sequences, plus one
	// baseline pass shared across experts.
	passes := 1 + len(a.Explore)*opts.SPSAProbes
	return dev.Seconds(simtime.ForwardFlops(cfg, tokens)) * float64(passes)
}

// assignFlops models the server-side selection cost (sorting utilities).
func assignFlops(experts int) float64 {
	e := float64(experts)
	return 50 * e * math.Log2(e+2)
}

// mergeFlops models clustering cost: sketch extraction, PCA, and K-Means
// assignment passes.
func mergeFlops(experts int, opt merge.Options) float64 {
	e := float64(experts)
	d := float64(opt.SketchDims)
	iters := float64(opt.KMeansIters)
	return float64(e*d*iters*8) + float64(d*d*float64(opt.PCADims)*40)
}
