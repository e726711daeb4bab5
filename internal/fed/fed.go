// Package fed implements the synchronous-round federated learning engine the
// paper builds on: a parameter server holding the global MoE model, a fleet
// of heterogeneous participants with non-IID data shards, FedAvg aggregation
// over expert parameters, and a simulated clock that prices every phase of a
// round.
//
// Method implementations (Flux and the FMD/FMQ/FMES baselines) plug in as
// Rounders: the engine owns data, devices, the round (Env.RunRound — cohort,
// fan-out, the server core's check, deadline, aggregation, accounting and
// simulated time) and the run around it (Run — the one round loop behind
// every run: the clock, evaluation, early stopping and the round records);
// a Rounder owns one participant's round, its Participant function.
package fed

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/pprof"
	"sync"

	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/fleet"
	"repro/internal/moe"
	"repro/internal/obs"
	"repro/internal/quant"
	"repro/internal/simtime"
	"repro/internal/tensor"
)

// Config controls a federated fine-tuning run.
type Config struct {
	Participants  int
	Batch         int // samples per participant per round
	LocalIters    int // local passes over the batch per round
	LR            float64
	Alpha         float64 // Dirichlet non-IID concentration
	DatasetSize   int
	EvalSubset    int // test samples per evaluation
	MaxRounds     int
	PretrainSteps int
	PretrainBatch int
	PretrainLR    float64

	// ServerBw is the parameter server's ingest/egress bandwidth in bytes/s,
	// shared across participants; aggregation time grows with the fleet,
	// producing the diminishing scalability returns of Figures 12–13.
	ServerBw float64

	// Workers bounds the pool a round's three fan-outs share: participant
	// execution (ForEachOf), Evaluate and QuantizedGlobal. Zero (the
	// default) resolves to GOMAXPROCS; one runs each in order on the calling
	// goroutine. Convergence results are bit-identical at every setting —
	// the parallel layer only changes wall-clock time, never the math.
	Workers int

	// Fleet describes heterogeneity: per-participant device profiles,
	// availability, cohort selection, and straggler deadlines. The zero
	// Spec is inactive — uniform devices, everyone participates every
	// round, no deadline — and produces bit-identical results to runs
	// predating the fleet subsystem.
	Fleet fleet.Spec

	// Agg selects the server's aggregation discipline: synchronous barrier
	// rounds (the zero value), buffered-async, or semi-sync. See AggSpec.
	Agg AggSpec
}

// DefaultConfig returns the settings used by the paper-shaped experiments:
// 10 participants, mini-batch fine-tuning with FedAvg, 2 local iterations
// per round, and a brief pre-training phase so expert routing is non-uniform.
func DefaultConfig() Config {
	return Config{
		Participants:  10,
		Batch:         6,
		LocalIters:    2,
		LR:            2.0,
		Alpha:         0.3,
		DatasetSize:   300,
		EvalSubset:    16,
		MaxRounds:     30,
		PretrainSteps: 700,
		PretrainBatch: 8,
		PretrainLR:    2.0,
		ServerBw:      2e4,
	}
}

// Validate reports the first invalid setting, or nil.
func (c Config) Validate() error {
	switch {
	case c.Participants <= 0:
		return fmt.Errorf("fed: participants %d must be positive", c.Participants)
	case c.Batch <= 0 || c.LocalIters <= 0:
		return fmt.Errorf("fed: batch %d / iters %d must be positive", c.Batch, c.LocalIters)
	case !(c.LR > 0 && c.LR <= math.MaxFloat64):
		return fmt.Errorf("fed: learning rate %v must be a positive finite number", c.LR)
	case !(c.Alpha > 0 && c.Alpha <= math.MaxFloat64):
		return fmt.Errorf("fed: alpha %v must be a positive finite number", c.Alpha)
	case c.PretrainSteps < 0:
		return fmt.Errorf("fed: pretrain steps %d must be non-negative", c.PretrainSteps)
	case c.DatasetSize < c.Participants:
		return fmt.Errorf("fed: dataset size %d below participant count", c.DatasetSize)
	case c.MaxRounds <= 0:
		return fmt.Errorf("fed: max rounds %d must be positive", c.MaxRounds)
	case !(c.ServerBw > 0 && c.ServerBw <= math.MaxFloat64):
		return fmt.Errorf("fed: server bandwidth %v must be a positive finite number", c.ServerBw)
	case c.Workers < 0:
		return fmt.Errorf("fed: workers %d must be non-negative (0 = GOMAXPROCS)", c.Workers)
	}
	if err := c.Agg.Validate(); err != nil {
		return err
	}
	if c.Agg.Active() {
		// The drop policy is a synchronous-barrier concept; the event-driven
		// modes never drop an update (late ones are discounted or carried).
		if c.Fleet.Drop {
			return fmt.Errorf("fed: aggregation mode %q never drops updates; remove the fleet drop policy", c.Agg.Mode)
		}
		if c.Agg.Mode == ModeSemiSync && c.Fleet.Deadline <= 0 {
			return fmt.Errorf("fed: semisync aggregation needs a fleet deadline_sec > 0 as its round clock")
		}
		if c.Agg.BufferK > c.Participants {
			return fmt.Errorf("fed: aggregation buffer_k %d exceeds the fleet size %d", c.Agg.BufferK, c.Participants)
		}
	}
	return c.Fleet.Validate(c.Participants)
}

// Env is a fully materialized federated experiment: pre-trained global
// model, per-participant shards and devices, and a held-out test set.
type Env struct {
	Cfg     Config
	Profile data.Profile
	Global  *moe.Model
	Shards  [][]*data.Sample
	Test    []*data.Sample
	Devices []simtime.Device
	RNG     *tensor.RNG

	// evalSub is the fixed every-k-th slice of Test that Evaluate scores,
	// built once by NewEnv and shared (read-only) by CloneForMethod copies.
	evalSub []*data.Sample

	ctx   context.Context
	state *envState
}

// envState is the environment's mutable shared state, held behind a pointer
// so Env values can be shallow-copied (CloneForMethod) without copying locks
// or sharing counters across clones.
type envState struct {
	mu      sync.Mutex
	scratch []*Scratch

	// quantized is QuantizedGlobal's buffer. QuantizedGlobal rewrites it
	// before a round's participant fan-out; until that pool joins it is
	// read-only.
	quantized *moe.Model

	// Event-driven server core (AggSpec active): the global model's version
	// (bumped once per buffer flush) and the carry-over buffer of updates
	// awaiting aggregation. Both persist across rounds of one run and start
	// fresh per CloneForMethod.
	version int
	pending []pendingUpdate

	// Observability: the attached span/run-log recorder (nil when no sink is
	// configured — the common case, and the one the hot path is tuned for),
	// the method label CloneForMethod stamped for CPU-profile attribution,
	// and the lazily built per-phase pprof label contexts.
	rec    *obs.Recorder
	method string
	labels map[simtime.Phase]context.Context
}

// envStateInit guards lazy state allocation for Env values assembled by
// composite literal outside this package (everything in-repo goes through
// NewEnv/CloneForMethod, which allocate state at construction). A global
// mutex keeps the goroutine-safety promise of RunRound/SetRecorder even on
// such hand-built environments; it is taken once per round-level call, never
// on a hot path.
var envStateInit sync.Mutex

// st returns the environment's shared state, allocating it on first use for
// Env values not built by NewEnv.
func (e *Env) st() *envState {
	envStateInit.Lock()
	s := e.state
	if s == nil {
		s = &envState{}
		e.state = s
	}
	envStateInit.Unlock()
	return s
}

// scratches returns at least n per-worker scratches, growing the pool on
// first use and whenever the worker count rises. Scratches persist for the
// environment's lifetime so worker buffers survive across rounds.
func (e *Env) scratches(n int) []*Scratch {
	st := e.st()
	st.mu.Lock()
	defer st.mu.Unlock()
	for len(st.scratch) < n {
		st.scratch = append(st.scratch, &Scratch{})
	}
	return st.scratch[:n]
}

// RoundStats is the server core's report of one round, returned by value from
// RunRound (in-process) and Server.RunRound (TCP); the core keeps no copy.
type RoundStats struct {
	// Phases is the round's simulated seconds by phase.
	Phases map[simtime.Phase]float64

	// UplinkBytes and DownlinkBytes are the update payload participants
	// uploaded and the broadcast payload they received, as their participant
	// functions modeled them (over TCP too: not the wire messages' lengths).
	// ExpertsTouched is how many expert aggregations the server applied.
	UplinkBytes    float64
	DownlinkBytes  float64
	ExpertsTouched int

	// Selected is how many participants the cohort selector picked for the
	// round; Completed is how many updates the server aggregated;
	// Dropped = Selected - Completed. Under the drop policy Completed
	// normally counts participants that made the deadline, with one
	// exception: when every cohort member misses it, the server waits past
	// the deadline for the single fastest update (Completed = 1 even though
	// that participant, too, was late).
	Selected  int
	Completed int
	Dropped   int

	// Event-driven aggregation (zero in synchronous mode): ModelVersion is
	// the global model version after the round (one bump per buffer flush),
	// Stale counts this round's updates aggregated with staleness > 0, and
	// Pending is the carry-over buffer size at the end of the round.
	ModelVersion int
	Stale        int
	Pending      int
}

// Record is the report as the observability record of (1-based) round n,
// with a fresh string-keyed copy of Phases the caller owns. Drivers add what
// only they know: the round's window and score.
func (s RoundStats) Record(n int) obs.Round {
	return obs.Round{
		Round: n, UplinkBytes: s.UplinkBytes, DownlinkBytes: s.DownlinkBytes,
		ExpertsTouched: s.ExpertsTouched,
		Selected:       s.Selected, Completed: s.Completed, Dropped: s.Dropped,
		Pending: s.Pending, ModelVersion: s.ModelVersion, Stale: s.Stale,
		Phases: phaseStrings(s.Phases),
	}
}

// SetContext attaches a cancellation context to the environment: RunRound
// starts no further participant once it is canceled, and returns its error.
func (e *Env) SetContext(ctx context.Context) { e.ctx = ctx }

// Context returns the attached context, never nil.
func (e *Env) Context() context.Context {
	if e.ctx == nil {
		return context.Background()
	}
	return e.ctx
}

// SetRecorder attaches an observability recorder. The server core reports
// per-participant and per-flush observations into it; the round driver owns
// its lifecycle (BeginRun/EndRound/Close). A nil
// recorder detaches — the default, and the state every clone starts in.
func (e *Env) SetRecorder(rec *obs.Recorder) {
	st := e.st()
	st.mu.Lock()
	st.rec = rec
	st.mu.Unlock()
}

// MarkPhase tags the calling goroutine's CPU-profile samples with the given
// round phase (and the environment's method label), so -cpuprofile output is
// attributable per phase. Label contexts are prebuilt once per environment;
// steady-state calls are a map lookup plus pprof.SetGoroutineLabels, which
// does not allocate. Unknown phases leave the current labels in place.
// Purely a profiling annotation — it never changes behavior or results.
func (e *Env) MarkPhase(p simtime.Phase) {
	st := e.st()
	st.mu.Lock()
	if st.labels == nil {
		method := st.method
		if method == "" {
			method = "env"
		}
		canonical := simtime.CanonicalPhases()
		st.labels = make(map[simtime.Phase]context.Context, len(canonical))
		for _, ph := range canonical {
			st.labels[ph] = pprof.WithLabels(context.Background(),
				pprof.Labels("method", method, "phase", string(ph)))
		}
	}
	ctx, ok := st.labels[p]
	st.mu.Unlock()
	if ok {
		pprof.SetGoroutineLabels(ctx)
	}
}

// methodName returns the label CloneForMethod stamped on this environment,
// or "env" for hand-built environments, for CPU-profile attribution.
func (e *Env) methodName() string {
	st := e.st()
	st.mu.Lock()
	m := st.method
	st.mu.Unlock()
	if m == "" {
		return "env"
	}
	return m
}

// phaseStrings converts a phase map to the string-keyed form the
// observability layer serializes.
func phaseStrings(phases map[simtime.Phase]float64) map[string]float64 {
	if len(phases) == 0 {
		return nil
	}
	out := make(map[string]float64, len(phases))
	//fluxvet:unordered map-to-map copy; per-key writes, element order irrelevant
	for p, v := range phases {
		out[string(p)] = v
	}
	return out
}

// NewEnv builds an environment: generates the synthetic dataset, pre-trains
// the global model on the training mixture, partitions training data
// non-IID, and assigns devices round-robin over the consumer tiers.
//
// seed names the experiment; everything downstream is deterministic in it.
func NewEnv(modelCfg moe.Config, profile data.Profile, cfg Config, seed string) (*Env, error) {
	return NewEnvContext(context.Background(), modelCfg, profile, cfg, seed)
}

// NewEnvContext is NewEnv with cancellation: base-model pre-training (the
// expensive part of construction) polls the context between steps.
func NewEnvContext(ctx context.Context, modelCfg moe.Config, profile data.Profile, cfg Config, seed string) (*Env, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := modelCfg.Validate(); err != nil {
		return nil, err
	}
	root := tensor.Named(seed)
	ds := data.Generate(profile, modelCfg.VocabSize, cfg.DatasetSize, root.Split("data"))
	train, test := ds.Split(0.8, root.Split("split"))

	model, err := BaseModelContext(ctx, modelCfg, cfg)
	if err != nil {
		return nil, err
	}

	shards := data.PartitionNonIID(train, cfg.Participants, cfg.Alpha, root.Split("partition"))
	devices := make([]simtime.Device, cfg.Participants)
	tiers := simtime.ConsumerTiers()
	for i := range devices {
		devices[i] = simtime.TierFor(tiers, i)
		// Fleet profiles scale the assigned tier; the identity profile (and
		// an inactive fleet) leaves the device bit-identical.
		devices[i] = cfg.Fleet.ProfileFor(i).Apply(devices[i])
	}
	return &Env{
		Cfg:     cfg,
		Profile: profile,
		Global:  model,
		Shards:  shards,
		Test:    test,
		Devices: devices,
		RNG:     root.Split("run"),
		evalSub: eval.Subset(test, cfg.EvalSubset),
		state:   &envState{},
	}, nil
}

// CloneForMethod duplicates the environment with an independent copy of the
// global model and a method-specific RNG stream, so several methods start
// from an identical state.
func (e *Env) CloneForMethod(method string) *Env {
	c := *e
	c.Global = e.Global.Clone()
	c.RNG = tensor.Named("method/" + method).Split(e.Profile.Name)
	c.state = &envState{method: method} // fresh counters and worker scratch, not shared
	return &c
}

// TotalExperts returns the number of experts in the global model.
func (e *Env) TotalExperts() int {
	var n int
	for _, k := range e.Global.Cfg.ExpertsPerLayer {
		n += k
	}
	return n
}

// Budgets returns participant i's expert-capacity and tuning budgets
// (B_i and B_tune_i of §3), derived from its device profile. Both are at
// least one per constraint sanity.
func (e *Env) Budgets(i int) (capacity, tune int) {
	total := e.TotalExperts()
	capacity = int(e.Devices[i].CapacityFrac * float64(total))
	tune = int(e.Devices[i].TuneFrac * float64(total))
	if capacity < e.Global.Cfg.Layers() {
		capacity = e.Global.Cfg.Layers() // at least one expert per layer
	}
	if tune < 1 {
		tune = 1
	}
	if tune > capacity {
		tune = capacity
	}
	return capacity, tune
}

// Batch returns participant i's training mini-batch for round r: (at most)
// Cfg.Batch samples, a deterministic rotation through the shard.
func (e *Env) Batch(i, r int) []*data.Sample {
	shard := e.Shards[i]
	n := min(e.Cfg.Batch, len(shard))
	out := make([]*data.Sample, 0, n)
	for k := 0; k < n; k++ {
		out = append(out, shard[(r*n+k)%len(shard)])
	}
	return out
}

// LocalSGD is the local fine-tuning loop of every method that does not read
// gradients between the backward pass and the step: iters passes over batch,
// each accumulating into grads and ending in one SGD step at lr/len(batch).
// It returns the tokens and samples pushed through forward/backward, which
// callers price into simulated time.
func LocalSGD(local *moe.Model, ws *moe.Workspace, grads *moe.Grads, batch []*data.Sample, iters int, lr float64) (tokens, steps int) {
	for it := 0; it < iters; it++ {
		for _, s := range batch {
			seq, mask := s.FullSequence()
			local.ForwardBackwardWS(ws, seq, mask, grads, nil, -1)
			tokens += len(seq)
			steps++
		}
		local.ApplySGD(grads, lr/float64(len(batch)))
	}
	return tokens, steps
}

// QuantizedGlobal round-trips a copy of the global model through bits-bit
// quantization — the profiling model of §4.1 — in a buffer the environment
// owns, and returns it. It is rebuilt on every call: a Rounder calls it once
// per round, in Round before the fan-out, and every worker then shares the result
// read-only (a body that needs a mutable quantized model copies it with
// Scratch.LocalClone). The next call overwrites it.
//
// The copy is made on the calling goroutine; its quantization units
// (moe.QuantUnits) are then round-tripped over the worker pool. Each unit
// scales its own rows, so the result is bit-identical to moe.Quantize at
// every worker count, and every unit runs even on a canceled context.
func (e *Env) QuantizedGlobal(bits quant.Bits) *moe.Model {
	st := e.st()
	qm := e.Global.CloneInto(st.quantized)
	st.quantized = qm
	e.fanOut(moe.QuantUnits(qm), "quantize", func(_ *Scratch, u int) {
		moe.QuantizeUnit(qm, u, bits)
	})
	return qm
}

// Evaluate scores the global model on the held-out test subset. The samples
// are scored over the worker pool, each on its worker's workspace and into
// its own slot, and the mean sums the slots in sample order, so the score is
// bit-identical at every worker count. Every sample is scored even on a
// canceled context: the mean is never partial. Like every fan-out it must
// not run concurrently with another on the same Env.
func (e *Env) Evaluate() float64 {
	sub := e.evalSub
	if sub == nil { // Env assembled by composite literal rather than NewEnv
		sub = eval.Subset(e.Test, e.Cfg.EvalSubset)
	}
	scores := make([]float64, len(sub))
	e.fanOut(len(sub), "evaluate", func(s *Scratch, i int) {
		scores[i] = eval.Score(e.Global, s.Workspace(), e.Profile, sub[i])
	})
	return eval.Mean(scores)
}

// ExpertKey identifies an expert by layer and original index.
type ExpertKey struct {
	Layer, Expert int
}

// Update is one participant's contribution to a round: the flattened
// parameters of each expert it fine-tuned, plus an aggregation weight
// (its sample count, per FedAvg).
type Update struct {
	Participant int
	Weight      float64
	Experts     map[ExpertKey][]float64
}

// ExtractUpdate is (*Scratch).ExtractUpdate without a scratch: every expert's
// parameters land in a fresh slice, for an update that outlives the round.
func ExtractUpdate(local *moe.Model, participant int, weight float64, tuning [][]int) Update {
	return (*Scratch)(nil).ExtractUpdate(local, participant, weight, tuning)
}

// Aggregate applies FedAvg to the global model: for every expert touched by
// at least one update, the new global parameters are the weight-averaged
// participant parameters. Untouched experts are left as they are. It returns
// the number of distinct experts updated.
func Aggregate(global *moe.Model, updates []Update) int {
	type acc struct {
		sum    []float64
		weight float64
	}
	accs := make(map[ExpertKey]*acc)
	for _, u := range updates {
		w := u.Weight
		if w <= 0 {
			w = 1
		}
		//fluxvet:unordered per-key accumulators: each expert folds its float sum in update (outer-loop) order; key visit order only interleaves independent accs
		for key, params := range u.Experts {
			a := accs[key]
			if a == nil {
				a = &acc{sum: make([]float64, len(params))}
				accs[key] = a
			}
			for i, v := range params {
				a.sum[i] += float64(w * v)
			}
			a.weight += w
		}
	}
	//fluxvet:unordered disjoint per-expert writes into the global model; no cross-key accumulation
	for key, a := range accs {
		inv := 1 / a.weight
		for i := range a.sum {
			a.sum[i] *= inv
		}
		global.ExpertAt(key.Layer, key.Expert).LoadFlat(a.sum)
	}
	return len(accs)
}

// UpdateBytes returns the wire size of an update at FP32.
func UpdateBytes(u Update) float64 {
	var params int
	//fluxvet:unordered integer size sum; addition order cannot change the total
	for _, p := range u.Experts {
		params += len(p)
	}
	return float64(params) * 4
}

// Participant is one cohort member's round: participant i, in cohort slot
// slot, trains on its worker's Scratch against the read-only global model and
// returns its SlotResult. It runs on the worker pool under the determinism
// contract of parallel.go.
type Participant func(s *Scratch, slot, i int) SlotResult

// Rounder is a federated fine-tuning method. Round does round r's serial
// preparation for the cohort (per-participant RNG splits, the quantized
// profiling model) and returns the participant function; Env.RunRound owns
// the rest of the round. A TCP client calls Round on its own replica of the
// env and runs only its own slot, so neither may depend on state outside env
// and the method value.
type Rounder interface {
	Name() string
	Round(env *Env, r int, cohort []int) Participant
}

// RunRound executes round r of m: the cohort (Cohort), m's preparation, the
// participant function for every slot over the worker pool, and the server
// core (finishRound). It returns the core's report of the round, or the
// context's error on cancellation, or a rejected update's error.
func (e *Env) RunRound(m Rounder, r int) (RoundStats, error) {
	cohort := e.Cohort(r)
	participant := m.Round(e, r, cohort)
	slots := make([]SlotResult, len(cohort))
	if err := ForEachOf(e, cohort, func(s *Scratch, slot, i int) {
		slots[slot] = participant(s, slot, i)
	}); err != nil {
		return RoundStats{}, err
	}
	return e.finishRound(cohort, slots)
}

// Run is the federated run: the one round loop behind Experiment.Run (over
// either transport), the figure runners and Server.ServeContext. It scores
// the model (env.Evaluate, 0 for an env without a test set) as round 0, then
// calls round for r = 0, 1, … within env.Cfg.MaxRounds. After each round it
// advances the simulated clock by the round's phases, scores the model,
// writes the round's record to env's recorder and to reg, and hands the
// report and the record to observe (round 0 gets the zero report). It stops
// after the first round whose score reaches target (> 0); the baseline score
// never stops it. It also stops at the first failed round, returning its
// error: ctx canceled before or during a round (a round cut short is
// discarded even if round returned no error), or an update rejected (counted
// in reg). reg and observe may be nil. The clock holds the completed rounds'
// simulated time.
func Run(ctx context.Context, env *Env, round func(context.Context, int) (RoundStats, error), target float64, reg *obs.Registry, observe func(RoundStats, obs.Round)) (*simtime.Clock, error) {
	if observe == nil {
		observe = func(RoundStats, obs.Round) {}
	}
	st := env.st()
	st.mu.Lock()
	rec := st.rec
	st.mu.Unlock()
	clock := simtime.NewClock()
	rd := obs.Round{Score: env.Evaluate()}
	rec.EndRound(rd)
	observe(RoundStats{}, rd)
	for r := 0; r < env.Cfg.MaxRounds; r++ {
		if err := ctx.Err(); err != nil {
			return clock, err
		}
		stats, err := round(ctx, r)
		if reg != nil && errors.Is(err, ErrRejected) {
			reg.Counter(obs.MetricRejectedUpdates, "").Add(1)
		}
		// A round cut short by ctx is discarded, even one that returned no error.
		if err = CtxErr(ctx, err); err != nil {
			return clock, err
		}
		start := clock.Seconds()
		clock.AdvanceAll(stats.Phases) // sorted: simulated time accumulates bit-reproducibly
		rd = stats.Record(r + 1)
		rd.StartSec, rd.EndSec, rd.Score = start, clock.Seconds(), env.Evaluate()
		rec.EndRound(rd)
		reg.ObserveRound(rd)
		observe(stats, rd)
		if target > 0 && rd.Score >= target {
			break
		}
	}
	return clock, nil
}
