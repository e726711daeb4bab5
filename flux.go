package flux

import (
	"context"
	"errors"
	"io"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/fed"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// Experiment is one configured federated fine-tuning run. Build it with
// New, inspect it with Describe, execute it with Run. An Experiment is
// single-shot: Run consumes it.
type Experiment struct {
	cfg       Config
	transport Transport
	handlers  []EventHandler

	// Observability sinks (see WithTrace, WithRunLog, WithMetrics). All
	// three default to nil, which costs nothing: the round loop checks one
	// pointer per round and the engine's hot paths never see a recorder.
	traceW  io.Writer
	runlogW io.Writer
	metrics *MetricsRegistry

	mu  sync.Mutex
	env *Env
	ran bool
}

// New assembles an Experiment from DefaultConfig plus the given options and
// validates the result. The expensive parts (dataset synthesis, base-model
// pre-training) are deferred to the first Describe or Run call.
func New(opts ...Option) (*Experiment, error) {
	e := &Experiment{cfg: DefaultConfig()}
	for _, opt := range opts {
		if opt != nil {
			opt(e)
		}
	}
	if e.transport == nil {
		e.transport = InProcess()
	}
	if err := e.cfg.Validate(); err != nil {
		return nil, err
	}
	return e, nil
}

// Config returns the experiment's resolved configuration.
func (e *Experiment) Config() Config { return e.cfg }

// ParticipantInfo describes one member of the federated fleet.
type ParticipantInfo struct {
	Index     int
	Device    string // consumer-GPU tier name
	Capacity  int    // expert-capacity budget B_i
	Tune      int    // tuning budget B_tune_i
	ShardSize int    // local non-IID samples
}

// Description summarizes a materialized experiment.
type Description struct {
	Method, Dataset, Model string
	Metric                 string  // the dataset's evaluation metric
	Target                 float64 // early-stop target (0 = run all rounds)
	Rounds                 int
	ModelParams            int
	Participants           []ParticipantInfo
}

// Describe materializes the environment (pre-training the base model on
// first use) and reports the resulting fleet and model.
func (e *Experiment) Describe() (Description, error) {
	env, err := e.ensureEnv(context.Background())
	if err != nil {
		return Description{}, err
	}
	d := Description{
		Method:      e.cfg.Method,
		Dataset:     e.cfg.Dataset,
		Model:       e.cfg.Model,
		Metric:      env.Profile.MetricName,
		Target:      e.resolveTarget(env.Profile),
		Rounds:      e.cfg.Rounds,
		ModelParams: env.Global.Cfg.TotalParams(),
	}
	for i := 0; i < e.cfg.Participants; i++ {
		capacity, tune := env.Budgets(i)
		d.Participants = append(d.Participants, ParticipantInfo{
			Index:     i,
			Device:    env.Devices[i].Name,
			Capacity:  capacity,
			Tune:      tune,
			ShardSize: len(env.Shards[i]),
		})
	}
	return d, nil
}

// Result is the outcome of a completed run.
type Result struct {
	Method, Dataset, Model string
	Transport              string
	Rounds                 int     // rounds executed (≤ the configured budget)
	Baseline               float64 // score of the pre-trained model before round 1
	Final                  float64
	Best                   float64
	Target                 float64
	TargetReached          bool
	SimHours               float64 // simulated time
	Elapsed                time.Duration
	UplinkBytes            float64 // total update payload uploaded
	DownlinkBytes          float64 // total payload broadcast to participants
	// Selected/Completed/Dropped total the per-round participation census
	// over the run (zero without an active FleetSpec-aware transport):
	// cohort members picked, of those aggregated within the straggler
	// deadline, and of those cut by the drop policy.
	Selected  int
	Completed int
	Dropped   int
	// ModelVersion is the final global-model version (aggregations
	// published) and Stale the total staleness-discounted updates merged;
	// both zero under synchronous aggregation (see RoundEvent).
	ModelVersion int
	Stale        int
	Phases       map[string]float64
	Events       []RoundEvent // the full convergence curve, round 0 included
}

func (e *Experiment) ensureEnv(ctx context.Context) (*Env, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.env != nil {
		return e.env, nil
	}
	env, err := NewEnv(ctx, e.cfg)
	if err != nil {
		return nil, err
	}
	e.env = env
	return e.env, nil
}

func (e *Experiment) resolveTarget(p data.Profile) float64 {
	if e.cfg.UseDatasetTarget {
		return p.TargetAcc
	}
	return e.cfg.Target
}

func (e *Experiment) emit(res *Result, ev RoundEvent) {
	res.Events = append(res.Events, ev)
	for _, h := range e.handlers {
		h(ev)
	}
}

// observeStart registers the run's metric set up front — a scrape before the
// first round completes sees the full set at zero, not a partial exposition
// — and records the fleet size.
func (e *Experiment) observeStart() {
	if e.metrics == nil {
		return
	}
	obs.RegisterStandard(e.metrics)
	e.metrics.Gauge(obs.MetricClients, "").Set(float64(e.cfg.Participants))
}

// Run executes the experiment: one synchronous round protocol, driven over
// whatever Transport the experiment was built with. Cancelling ctx stops
// the run — including an in-flight TCP round — and returns the context's
// error. On success the Result holds the full convergence curve.
func (e *Experiment) Run(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.Lock()
	if e.ran {
		e.mu.Unlock()
		return nil, errors.New("flux: experiment already run; build a new one")
	}
	e.ran = true
	e.mu.Unlock()

	env, err := e.ensureEnv(ctx)
	if err != nil {
		return nil, err
	}
	env.SetContext(ctx)
	// NewRecorder returns nil when no sink is configured; every recorder
	// method is nil-safe, so the calls below stay unconditional while a
	// sink-free run pays one pointer check per round and allocates nothing.
	rec := obs.NewRecorder(e.traceW, e.runlogW)
	env.SetRecorder(rec)
	if err := e.transport.Start(ctx, env, e.cfg.Method); err != nil {
		e.transport.Close()
		rec.Close()
		return nil, err
	}
	rec.BeginRun(obs.RunMeta{
		Method:       e.cfg.Method,
		Dataset:      e.cfg.Dataset,
		Model:        e.cfg.Model,
		Seed:         e.cfg.Seed,
		Transport:    e.transport.Name(),
		Participants: e.cfg.Participants,
	})
	e.observeStart()

	target := e.resolveTarget(env.Profile)
	clock := simtime.NewClock()
	//fluxvet:allow wallclock Result/RoundEvent.Elapsed report real wall time for observability; simulated time stays in clock
	start := time.Now()
	res := &Result{
		Method:    e.cfg.Method,
		Dataset:   e.cfg.Dataset,
		Model:     e.cfg.Model,
		Transport: e.transport.Name(),
		Target:    target,
		Phases:    make(map[string]float64),
	}

	score := env.Evaluate()
	res.Baseline, res.Best = score, score
	//fluxvet:allow wallclock wall-time observability in the event stream; never folded into results
	e.emit(res, RoundEvent{Round: 0, Score: score, Elapsed: time.Since(start)})
	rec.EndRound(obs.Round{Round: 0, Score: score})

	var runErr error
	for r := 0; r < e.cfg.Rounds; r++ {
		if err := ctx.Err(); err != nil {
			runErr = err
			break
		}
		startSec := clock.Seconds()
		stats, err := e.transport.Round(ctx, r)
		if err != nil {
			if e.metrics != nil && errors.Is(err, fed.ErrRejected) {
				e.metrics.Counter(obs.MetricRejectedUpdates, "").Add(1)
			}
			runErr = fed.CtxErr(ctx, err)
			break
		}
		if err := ctx.Err(); err != nil {
			// The round was cut short; discard its partial state.
			runErr = err
			break
		}
		clock.AdvanceAll(stats.Phases) // sorted: simulated time accumulates bit-reproducibly
		res.Rounds = r + 1
		res.UplinkBytes += stats.UplinkBytes
		res.DownlinkBytes += stats.DownlinkBytes
		res.Selected += stats.Selected
		res.Completed += stats.Completed
		res.Dropped += stats.Dropped
		res.Stale += stats.Stale
		res.ModelVersion = stats.ModelVersion
		score = env.Evaluate()
		if score > res.Best {
			res.Best = score
		}
		// rd.Phases is this round's own map: the recorder reads it without
		// retaining it, and the event then owns it, so a handler that mutates
		// or retains Phases cannot corrupt the records of later rounds.
		rd := stats.Record(r + 1)
		rd.StartSec, rd.EndSec, rd.Score = startSec, clock.Seconds(), score
		rec.EndRound(rd)
		e.metrics.ObserveRound(rd)
		e.emit(res, RoundEvent{
			Round:    r + 1,
			Score:    score,
			SimHours: clock.Hours(),
			//fluxvet:allow wallclock wall-time observability in the event stream; never folded into results
			Elapsed:        time.Since(start),
			UplinkBytes:    stats.UplinkBytes,
			DownlinkBytes:  stats.DownlinkBytes,
			ExpertsTouched: stats.ExpertsTouched,
			Selected:       stats.Selected,
			Completed:      stats.Completed,
			Dropped:        stats.Dropped,
			ModelVersion:   stats.ModelVersion,
			Stale:          stats.Stale,
			Pending:        stats.Pending,
			Phases:         rd.Phases,
		})
		if target > 0 && score >= target {
			res.TargetReached = true
			break
		}
	}

	closeErr := e.transport.Close()
	recErr := rec.Close()
	if e.metrics != nil {
		e.metrics.Gauge(obs.MetricClients, "").Set(0)
	}
	if runErr != nil {
		return nil, runErr
	}
	if closeErr != nil {
		return nil, closeErr
	}
	if recErr != nil {
		return nil, recErr
	}
	res.Final = score
	res.SimHours = clock.Hours()
	//fluxvet:allow wallclock wall-time observability on the final Result; never folded into results
	res.Elapsed = time.Since(start)
	//fluxvet:unordered map-to-map copy of the phase breakdown; per-key writes, element order irrelevant
	for p, v := range clock.Breakdown() {
		res.Phases[string(p)] = v
	}
	return res, nil
}
