package main

// This file is the pinned probe surface: every call the benchmark makes
// into a layer of this repository is in this file and nowhere else. The
// traced run replays one cohort participant per round through exactly these
// public functions, timing each call as a span, so a per-layer number always
// names the function it measured. A refactor that changes one of these
// signatures needs a benchmark PR (and a new baseline); anything else in the
// packages below is free to move.
//
//	tensor   (*MulScratch).MatMulInto(out, a, b *Matrix)
//	quant    RoundTripInPlace(m *tensor.Matrix, b Bits)
//	moe      (*Model).ForwardBackwardWS(ws, seq, mask, grads, stats, sampleID) float64
//	         (*Model).ForwardWS(ws, seq, stats, sampleID) *tensor.Matrix
//	         (*Model).ApplySGD(grads, lr)
//	         (*Model).CloneInto(dst) *Model          via (*fed.Scratch).LocalClone
//	         Quantize(m, bits)
//	         Customize(global, specs) (*Model, error)
//	         (*Model).EncodeBytes() ([]byte, error) / DecodeBytes([]byte) (*Model, error)
//	         NewGrads(m, trainEmbed) / NewWorkspace()   (wire clients only)
//	profile  Profiler.RunOn(m, cfg, samples, ws) *Result
//	merge    BuildPlan(global, stats, tuning, totalBudget, opt, rng) (*Plan, error)
//	assign   NewUtilityTable(stats) / Assign(table, layers, budget, eps, rng) Assignment
//	         ProbeExploreSPSA(m, ws, keys, seqs, masks, probes, sigma, split) []SPSAResult
//	fed      ForEachOf via flux.ForEachCohort, (*Scratch).{Workspace,LocalClone,Grads,ExtractUpdate}
//	         ExtractUpdate / IdentityTuning (wire clients), Aggregate(global, updates) int
//	         RoundMsg, UpdateMsg (gob), (*Env).{Cohort,Batch,Budgets,Evaluate,Workers}
//	fleet    Spec.Cohort(r, n) []int
//	obs      NewRecorder(trace, runlog), (*Recorder).{BeginRun,Participant,EndRound}
//
// The replay works on scratch state only — the worker scratch the pool
// itself overwrites every round, private buffers and a private RNG — and
// never writes env.Global, env.RNG or the rounder; the traced run's
// convergence digest is checked against an untraced run's to prove it.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"runtime"

	flux "repro"
	"repro/internal/data"
	"repro/internal/fed"
	fluxcore "repro/internal/flux"
	"repro/internal/flux/assign"
	"repro/internal/flux/merge"
	"repro/internal/flux/profile"
	"repro/internal/moe"
	"repro/internal/obs"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// resetBaseModelCache makes the next environment construction pre-train
// from scratch, so one process can time several cold setups.
func resetBaseModelCache() { fed.ResetBaseModelCache() }

// pretrainBaseModel runs (and caches) the base-model pre-training that
// environment construction would otherwise do, so setup time can be split
// into pre-training and the rest.
func pretrainBaseModel(cfg flux.Config) error {
	modelCfg := moe.SimConfigLLaMATrain()
	if cfg.Model == "deepseek" {
		modelCfg = moe.SimConfigDeepSeekTrain()
	}
	_, err := fed.BaseModel(modelCfg, cfg.EngineConfig())
	return err
}

// prober replays one participant's round through the layers, one span per
// call, and keeps the per-round counts that are not durations.
type prober struct {
	env    *flux.Env
	method string
	wire   bool // the workload runs over the TCP transport
	opts   fluxcore.Options
	rng    *tensor.RNG

	// private buffers, grown once
	mul                    tensor.MulScratch
	mulA, mulB, mulOut     *tensor.Matrix
	quantBuf               *tensor.Matrix
	aggModel               *moe.Model
	ws                     *moe.Workspace
	rec                    *obs.Recorder
	obsPhases              map[string]float64
	wireBuf                bytes.Buffer
	wireEnc                *gob.Encoder
	wireDec                *gob.Decoder
	explore, fwdbwdCalls   []float64
	trainTokens            []float64
	wireDownMB, wireUpMB   []float64
	cohortSizes, workerCnt []float64

	// the replay in flight (set by replay, read by the pool body)
	tr     *tracer
	parent int
	round  int
	update fed.Update
}

func newProber(seed string) *prober {
	return &prober{rng: tensor.Named("fluxbench-replay/" + seed)}
}

// bind attaches the prober to the run's environment. Only the two
// method/transport pairs the workloads use are replayable.
func (p *prober) bind(env *flux.Env, method, transport string) error {
	p.env, p.method, p.wire = env, method, transport == "tcp"
	switch {
	case method == "flux" && !p.wire:
		p.opts = fluxcore.DefaultOptions(env.Cfg.MaxRounds)
	case method == "fmd" && p.wire:
	default:
		return fmt.Errorf("fluxbench: no replay for method %q over transport %q", method, transport)
	}
	cfg := env.Global.Cfg
	p.mulA = tensor.NewMatrix(cfg.MaxSeqLen, cfg.Dim)
	p.mulB = tensor.NewMatrix(cfg.Dim, cfg.FFNDim)
	p.mulOut = tensor.NewMatrix(cfg.MaxSeqLen, cfg.FFNDim)
	g := p.rng.Split("matmul")
	p.mulA.RandInit(g, 1)
	p.mulB.RandInit(g, 1)
	p.quantBuf = tensor.NewMatrix(cfg.Dim, cfg.FFNDim)
	p.ws = moe.NewWorkspace()
	p.rec = obs.NewRecorder(io.Discard, io.Discard)
	p.rec.BeginRun(obs.RunMeta{Method: method, Participants: env.Cfg.Participants})
	p.obsPhases = map[string]float64{
		string(flux.PhaseProfiling): 1, string(flux.PhaseMerging): 1, string(flux.PhaseAssignment): 1,
		string(flux.PhaseFineTuning): 1, string(flux.PhaseComm): 1,
	}
	p.wireEnc = gob.NewEncoder(&p.wireBuf)
	p.wireDec = gob.NewDecoder(&p.wireBuf)
	return nil
}

// workers is how many participants the round under test runs at once.
func (p *prober) workers(cohort int) int {
	w := p.env.Workers()
	if p.wire {
		w = runtime.GOMAXPROCS(0) // one goroutine per connection
	}
	if w > cohort {
		w = cohort
	}
	return w
}

// replay runs after the inner transport finished round r.
func (p *prober) replay(tr *tracer, parent, r int) {
	env := p.env
	p.tr, p.parent, p.round = tr, parent, r
	cohort := env.Cohort(r)
	if env.Cfg.Fleet.Active() {
		tr.timed("fleet.cohort", parent, func() { env.Cfg.Fleet.Cohort(r, env.Cfg.Participants) })
	}
	who := cohort[r%len(cohort)]
	p.cohortSizes = append(p.cohortSizes, float64(len(cohort)))
	p.workerCnt = append(p.workerCnt, float64(p.workers(len(cohort))))

	calls := 0
	for _, i := range cohort {
		n := env.Cfg.Batch
		if n > len(env.Shards[i]) {
			n = len(env.Shards[i])
		}
		calls += env.Cfg.LocalIters * n
	}
	p.fwdbwdCalls = append(p.fwdbwdCalls, float64(calls))

	// Kernel rungs every workload stands on.
	tr.timed("tensor.matmul", parent, func() { p.mul.MatMulInto(p.mulOut, p.mulA, p.mulB) })
	seq, _ := env.Batch(who, r)[0].FullSequence()
	tr.timed("moe.fwd", parent, func() { env.Global.ForwardWS(p.ws, seq, nil, -1) })

	if p.wire {
		p.replayWire(who)
	} else {
		p.quantBuf.CopyFrom(env.Global.Layers[0].Experts[0].W1)
		tr.timed("quant.roundtrip", parent, func() { quant.RoundTripInPlace(p.quantBuf, p.opts.ProfileBits) })
		// One participant over the pool's own entry point: the serial path,
		// on worker scratch 0, which the next round's pool overwrites anyway.
		if err := flux.ForEachCohort(env, []int{who}, p.fluxParticipant); err != nil {
			return // the run was canceled; it will report that itself
		}
	}

	// Server side: FedAvg over cohort-many updates, on a private clone.
	p.aggModel = env.Global.CloneInto(p.aggModel)
	updates := make([]fed.Update, len(cohort))
	for i := range updates {
		updates[i] = p.update
	}
	tr.timed("fed.aggregate", parent, func() { fed.Aggregate(p.aggModel, updates) })
	p.update = fed.Update{}

	tr.timed("eval.evaluate", parent, func() { env.Evaluate() })

	tr.timed("obs.endround", parent, func() {
		for _, i := range cohort {
			p.rec.Participant(obs.Participant{Index: i, Device: env.Devices[i].Name, Phases: p.obsPhases})
		}
		p.rec.EndRound(obs.Round{Round: r + 1, EndSec: 1, Selected: len(cohort), Completed: len(cohort), Phases: p.obsPhases})
	})
}

// fluxParticipant is one Flux participant's round (internal/flux.Runner.Round
// up to the upload), under a "participant" span.
func (p *prober) fluxParticipant(s *fed.Scratch, _, i int) {
	env, tr, r := p.env, p.tr, p.round
	cfg := env.Global.Cfg
	rng := p.rng.Split(fmt.Sprintf("p%d/r%d", i, r))
	part := tr.begin("participant", p.parent)
	defer tr.end(part)
	mws := s.Workspace()

	var batch []*data.Sample
	tr.timed("data.batch", part, func() { batch = env.Batch(i, r) })

	var qm *moe.Model
	tr.timed("moe.clone", part, func() { qm = s.LocalClone(env.Global) })
	tr.timed("moe.quantize", part, func() { moe.Quantize(qm, p.opts.ProfileBits) })
	var res *profile.Result
	prof := profile.Profiler{Bits: p.opts.ProfileBits, TrackSamples: true}
	tr.timed("profile.run", part, func() { res = prof.RunOn(qm, cfg, batch, mws) })

	table := assign.NewUtilityTable(res.Stats)
	capacity, tune := env.Budgets(i)
	var a assign.Assignment
	tr.timed("assign.assign", part, func() {
		a = assign.Assign(table, cfg.ExpertsPerLayer, tune, p.opts.Eps.Epsilon(r), rng.Split("assign"))
	})
	p.explore = append(p.explore, float64(len(a.Explore)))
	tuning := a.Tuning(cfg.Layers())

	nonBudget := capacity - len(a.Exploit)
	if nonBudget < cfg.Layers() {
		nonBudget = cfg.Layers()
	}
	var plan *merge.Plan
	var err error
	tr.timed("merge.plan", part, func() {
		plan, err = merge.BuildPlan(env.Global, res.Stats, tuning, nonBudget, p.opts.Merge, rng.Split("merge"))
	})
	if err != nil {
		panic(fmt.Sprintf("fluxbench: merge plan: %v", err))
	}
	var local *moe.Model
	tr.timed("moe.customize", part, func() { local, err = moe.Customize(env.Global, plan.Specs) })
	if err != nil {
		panic(fmt.Sprintf("fluxbench: customize: %v", err))
	}

	p.train(part, local, mws, s.Grads(local), batch)

	if len(a.Explore) > 0 && p.opts.SPSAProbes > 0 {
		n := p.opts.SPSASeqs
		if n > len(batch) {
			n = len(batch)
		}
		seqs := make([][]int, n)
		masks := make([][]bool, n)
		for k, smp := range batch[:n] {
			seqs[k], masks[k] = smp.FullSequence()
		}
		tr.timed("assign.spsa", part, func() {
			assign.ProbeExploreSPSA(local, mws, a.Explore, seqs, masks, p.opts.SPSAProbes, p.opts.SPSASigma,
				func(k assign.Key) *tensor.RNG { return rng.Split(fmt.Sprintf("e%d.%d", k.Layer, k.Expert)) })
		})
	}

	tr.timed("fed.extract", part, func() {
		p.update = s.ExtractUpdate(local, i, float64(len(env.Shards[i])), tuning)
	})
}

// train is the local fine-tuning loop every method shares.
func (p *prober) train(part int, local *moe.Model, mws *moe.Workspace, grads *moe.Grads, batch []*data.Sample) {
	tokens := 0
	for it := 0; it < p.env.Cfg.LocalIters; it++ {
		for _, smp := range batch {
			seq, mask := smp.FullSequence()
			p.tr.timed("moe.fwdbwd", part, func() { local.ForwardBackwardWS(mws, seq, mask, grads, nil, -1) })
			tokens += len(seq)
		}
		p.tr.timed("moe.sgd", part, func() { local.ApplySGD(grads, p.env.Cfg.LR/float64(len(batch))) })
	}
	p.trainTokens = append(p.trainTokens, float64(tokens))
}

// replayWire is one round of the TCP deployment as fed.Server.RunRound and
// fed.RunClientContext perform it, minus the socket: the server encodes the
// model once and gob-sends it to each client, which decodes it, trains on
// fresh buffers, extracts every expert and gob-encodes the update, which the
// server decodes. One persistent encoder/decoder pair stands in for a
// connection, so gob type descriptors are sent once, as on a real socket.
func (p *prober) replayWire(who int) {
	env, tr, r := p.env, p.tr, p.round
	var blob []byte
	var err error
	tr.timed("moe.encode", p.parent, func() { blob, err = env.Global.EncodeBytes() })
	if err != nil {
		panic(fmt.Sprintf("fluxbench: encode: %v", err))
	}

	part := tr.begin("participant", p.parent)
	tr.timed("fed.wire_model", part, func() {
		if err = p.wireEnc.Encode(fed.RoundMsg{Round: r, Model: blob}); err != nil {
			return
		}
		var got fed.RoundMsg
		err = p.wireDec.Decode(&got)
	})
	if err != nil {
		panic(fmt.Sprintf("fluxbench: model gob round trip: %v", err))
	}
	var local *moe.Model
	tr.timed("moe.decode", part, func() { local, err = moe.DecodeBytes(blob) })
	if err != nil {
		panic(fmt.Sprintf("fluxbench: decode: %v", err))
	}
	var batch []*data.Sample
	tr.timed("data.batch", part, func() { batch = env.Batch(who, r) })
	p.train(part, local, moe.NewWorkspace(), moe.NewGrads(local, false), batch)
	tr.timed("fed.extract", part, func() {
		p.update = fed.ExtractUpdate(local, who, float64(len(env.Shards[who])), fed.IdentityTuning(local.Cfg))
	})
	msg := fed.UpdateMsg{Participant: p.update.Participant, Weight: p.update.Weight, Experts: p.update.Experts}
	var upBytes int
	tr.timed("fed.wire_update", part, func() {
		if err = p.wireEnc.Encode(msg); err != nil {
			return
		}
		upBytes = p.wireBuf.Len()
		var got fed.UpdateMsg
		err = p.wireDec.Decode(&got)
	})
	tr.end(part)
	if err != nil {
		panic(fmt.Sprintf("fluxbench: update gob round trip: %v", err))
	}
	peers := float64(env.Cfg.Participants)
	p.wireDownMB = append(p.wireDownMB, peers*float64(len(blob))/1e6)
	p.wireUpMB = append(p.wireUpMB, peers*float64(upBytes)/1e6)
}
