package flux

import (
	"fmt"
	"io"

	"repro/internal/data"
	"repro/internal/fed"
	"repro/internal/methods"
	"repro/internal/moe"
)

// Config is the fully resolved configuration of an Experiment. Zero values
// are filled from DefaultConfig by New; use the With* functional options to
// override individual settings.
type Config struct {
	Method  string // federated fine-tuning method; see Methods
	Dataset string // synthetic dataset profile: dolly | gsm8k | mmlu | piqa
	Model   string // MoE architecture: llama | deepseek
	Seed    string // names the experiment; everything downstream is deterministic in it

	Rounds          int // synchronous federated rounds
	Participants    int
	Batch           int // samples per participant per round
	LocalIters      int // local passes over the batch per round
	LR              float64
	Alpha           float64 // Dirichlet non-IID concentration
	DatasetSize     int
	EvalSubset      int // test samples per evaluation
	PretrainSteps   int
	ServerBandwidth float64 // parameter-server ingest/egress bytes/s

	// Workers sets the worker pool the in-process engine fans each round's
	// participants, its evaluation samples and its quantized profiling model
	// over, and the width of base-model pre-training. Zero (the default)
	// uses GOMAXPROCS; one runs all four in order on one goroutine.
	// Convergence results are bit-identical at every setting — parallelism
	// changes wall-clock time, never the math (TestSerialParallelBitEquality
	// pins the rounds, TestPretrainWidthBitIdentity pre-training).
	Workers int

	// Target stops the run early once the evaluation score reaches it;
	// zero runs the full round budget. UseDatasetTarget substitutes the
	// dataset profile's calibrated time-to-accuracy target.
	Target           float64
	UseDatasetTarget bool

	// Fleet describes fleet heterogeneity: device profiles, availability,
	// cohort selection, and straggler deadlines. The zero FleetSpec is
	// inactive — uniform devices, full participation, no deadline — and
	// reproduces pre-fleet behavior bit-for-bit. In-process transport only;
	// the TCP transport rejects fleet-active configurations.
	Fleet FleetSpec

	// Aggregation selects the server's aggregation mode: synchronous (the
	// zero value, bit-identical to pre-aggregation-mode behavior),
	// buffered-async, or semi-synchronous. In-process transport only; the
	// TCP transport rejects active aggregation specs.
	Aggregation AggregationSpec
}

// DefaultConfig returns the paper-shaped defaults: the Flux method on the
// synthetic GSM8K profile over the reduced LLaMA-MoE architecture, with the
// engine settings of §8.1.
func DefaultConfig() Config {
	f := fed.DefaultConfig()
	return Config{
		Method:          "flux",
		Dataset:         "gsm8k",
		Model:           "llama",
		Seed:            "flux",
		Rounds:          f.MaxRounds,
		Participants:    f.Participants,
		Batch:           f.Batch,
		LocalIters:      f.LocalIters,
		LR:              f.LR,
		Alpha:           f.Alpha,
		DatasetSize:     f.DatasetSize,
		EvalSubset:      f.EvalSubset,
		PretrainSteps:   f.PretrainSteps,
		ServerBandwidth: f.ServerBw,
	}
}

// Models returns the supported MoE architecture names.
func Models() []string { return []string{"llama", "deepseek"} }

func modelConfigByName(name string) (moe.Config, error) {
	switch name {
	case "llama":
		return moe.SimConfigLLaMATrain(), nil
	case "deepseek":
		return moe.SimConfigDeepSeekTrain(), nil
	default:
		return moe.Config{}, fmt.Errorf("flux: unknown model %q (known: %v)", name, Models())
	}
}

// EngineConfig lowers the public configuration onto the engine's — the
// value a registered method constructor receives (Rounds arrives as
// MaxRounds; pre-training batch and learning rate keep their defaults).
func (c Config) EngineConfig() EngineConfig {
	f := fed.DefaultConfig()
	f.Participants = c.Participants
	f.Batch = c.Batch
	f.LocalIters = c.LocalIters
	f.LR = c.LR
	f.Alpha = c.Alpha
	f.DatasetSize = c.DatasetSize
	f.EvalSubset = c.EvalSubset
	f.MaxRounds = c.Rounds
	f.PretrainSteps = c.PretrainSteps
	f.ServerBw = c.ServerBandwidth
	f.Workers = c.Workers
	f.Fleet = c.Fleet
	f.Agg = c.Aggregation
	return f
}

// Validate reports the first invalid setting, or nil.
func (c Config) Validate() error {
	if _, ok := methods.Get(c.Method); !ok {
		return fmt.Errorf("flux: unknown method %q (known: %v)", c.Method, methods.Names())
	}
	if _, err := data.ProfileByName(c.Dataset); err != nil {
		return fmt.Errorf("flux: %w", err)
	}
	if _, err := modelConfigByName(c.Model); err != nil {
		return err
	}
	if c.Seed == "" {
		return fmt.Errorf("flux: seed must be non-empty")
	}
	if c.Target < 0 {
		return fmt.Errorf("flux: target %v must be non-negative", c.Target)
	}
	if err := c.EngineConfig().Validate(); err != nil {
		return fmt.Errorf("flux: %w", err)
	}
	return nil
}

// Option customizes an Experiment under construction.
type Option func(*Experiment)

// WithMethod selects the federated fine-tuning method by registry name.
func WithMethod(name string) Option { return func(e *Experiment) { e.cfg.Method = name } }

// WithDataset selects the synthetic dataset profile by name.
func WithDataset(name string) Option { return func(e *Experiment) { e.cfg.Dataset = name } }

// WithModel selects the MoE architecture ("llama" or "deepseek").
func WithModel(name string) Option { return func(e *Experiment) { e.cfg.Model = name } }

// WithSeed names the experiment; runs with equal seeds and settings are
// bit-identical.
func WithSeed(seed string) Option { return func(e *Experiment) { e.cfg.Seed = seed } }

// WithRounds sets the synchronous round budget.
func WithRounds(n int) Option { return func(e *Experiment) { e.cfg.Rounds = n } }

// WithParticipants sets the fleet size.
func WithParticipants(n int) Option { return func(e *Experiment) { e.cfg.Participants = n } }

// WithBatch sets the per-participant mini-batch size.
func WithBatch(n int) Option { return func(e *Experiment) { e.cfg.Batch = n } }

// WithLocalIters sets local passes over the batch per round.
func WithLocalIters(n int) Option { return func(e *Experiment) { e.cfg.LocalIters = n } }

// WithLearningRate sets the local SGD learning rate.
func WithLearningRate(lr float64) Option { return func(e *Experiment) { e.cfg.LR = lr } }

// WithAlpha sets the Dirichlet non-IID concentration of the data partition.
func WithAlpha(a float64) Option { return func(e *Experiment) { e.cfg.Alpha = a } }

// WithDatasetSize sets the synthetic dataset's sample count.
func WithDatasetSize(n int) Option { return func(e *Experiment) { e.cfg.DatasetSize = n } }

// WithEvalSubset caps the held-out samples scored per evaluation.
func WithEvalSubset(n int) Option { return func(e *Experiment) { e.cfg.EvalSubset = n } }

// WithPretrainSteps sets base-model pre-training steps (more = better base
// model, slower first construction; the base model is cached per setting).
func WithPretrainSteps(n int) Option { return func(e *Experiment) { e.cfg.PretrainSteps = n } }

// WithServerBandwidth sets the parameter server's shared bandwidth in
// bytes/s, the term that produces diminishing scalability returns.
func WithServerBandwidth(bw float64) Option {
	return func(e *Experiment) { e.cfg.ServerBandwidth = bw }
}

// WithParallelism sets the worker pool the in-process engine fans each
// round's participants, evaluation samples and quantized profiling model
// over, and base-model pre-training's width: n == 1 runs them in order on
// one goroutine, n == 0 (the default) uses GOMAXPROCS. Any setting produces bit-identical
// convergence curves and phase timings; parallelism only changes wall-clock
// time. Leave it at the default unless benchmarking the pool itself or
// pinning the run to a CPU budget shared with other work.
func WithParallelism(n int) Option { return func(e *Experiment) { e.cfg.Workers = n } }

// WithFleet replaces the fleet description wholesale: device profiles (or a
// named distribution), availability trace, selection policy, deadline, and
// fleet seed. Later WithSelector/WithDeadline options still apply on top.
func WithFleet(spec FleetSpec) Option { return func(e *Experiment) { e.cfg.Fleet = spec } }

// WithFleetDistribution selects a named built-in fleet distribution (see
// FleetDistributions): "uniform", "tiered", "longtail", or "flaky".
func WithFleetDistribution(name string) Option {
	return func(e *Experiment) {
		e.cfg.Fleet.Distribution = name
		e.cfg.Fleet.Profiles = nil
	}
}

// WithSelector sets the cohort selection policy applied each round to the
// available participants (see SelectionPolicies).
func WithSelector(sel SelectorSpec) Option {
	return func(e *Experiment) { e.cfg.Fleet.Selector = sel }
}

// WithDeadline sets the straggler deadline in simulated seconds and the
// policy at the deadline: drop=true cuts participants that miss it out of
// aggregation (the server proceeds at the deadline), drop=false waits for
// everyone (the deadline is observational). Zero seconds removes the
// deadline.
func WithDeadline(seconds float64, drop bool) Option {
	return func(e *Experiment) {
		e.cfg.Fleet.Deadline = seconds
		e.cfg.Fleet.Drop = drop && seconds > 0
	}
}

// WithAggregation selects the server's aggregation mode. The zero spec (or
// Mode AggSync) is the classic synchronous protocol and reproduces
// pre-aggregation-mode runs bit-for-bit. Mode AggAsync aggregates as soon as
// BufferK updates arrive (default: half the cohort), discounting each update
// by 1/(1+staleness)^StalenessAlpha, where staleness counts global-model
// versions published since the update's participant last synced. Mode
// AggSemiSync aggregates once per fixed round clock — the fleet deadline,
// which must be set — and carries late updates into the next round instead
// of dropping them. Active modes never drop updates, so they reject a fleet
// drop policy.
func WithAggregation(spec AggregationSpec) Option {
	return func(e *Experiment) { e.cfg.Aggregation = spec }
}

// WithTarget stops the run early once the evaluation score reaches acc.
func WithTarget(acc float64) Option {
	return func(e *Experiment) { e.cfg.Target = acc; e.cfg.UseDatasetTarget = false }
}

// WithDatasetTarget stops the run early at the dataset profile's calibrated
// time-to-accuracy target.
func WithDatasetTarget() Option { return func(e *Experiment) { e.cfg.UseDatasetTarget = true } }

// WithConfig replaces the whole configuration; later options still apply on
// top.
func WithConfig(cfg Config) Option { return func(e *Experiment) { e.cfg = cfg } }

// WithTransport selects the execution substrate; the default is InProcess.
func WithTransport(t Transport) Option { return func(e *Experiment) { e.transport = t } }

// WithRoundEvents registers a callback invoked synchronously after the
// baseline evaluation (round 0) and after every completed round.
func WithRoundEvents(fn EventHandler) Option {
	return func(e *Experiment) {
		if fn != nil {
			e.handlers = append(e.handlers, fn)
		}
	}
}

// WithTrace streams a Chrome trace-event JSON timeline of the run to w:
// one span per round, child spans per phase, per-participant spans by phase,
// and flush spans under event-driven aggregation. Open the file in Perfetto
// (ui.perfetto.dev) or chrome://tracing. All timestamps come from the
// simulated clock, so the bytes written are identical at every worker count
// and across same-seed runs. The run loop writes the trace; w must stay open
// until Run returns. Nil restores the default (no trace).
func WithTrace(w io.Writer) Option { return func(e *Experiment) { e.traceW = w } }

// WithRunLog streams a structured JSONL run log to w: one "run" header
// record, one "round" record per round (round 0 included), and one
// "participant" record per cohort member per round with its device, phase
// seconds, modeled traffic, and staleness. Records and their fields are
// emitted in a stable order, so the bytes written are identical at every
// worker count and across same-seed runs. Nil restores the default (no log).
func WithRunLog(w io.Writer) Option { return func(e *Experiment) { e.runlogW = w } }

// WithMetrics publishes live run counters and gauges (rounds, modeled
// uplink/downlink bytes, model version, pending updates, stale updates,
// fleet size) into reg as the run progresses, for scraping via the
// registry's /metrics handler (see NewMetricsRegistry). Nil restores the
// default (no metrics).
func WithMetrics(reg *MetricsRegistry) Option { return func(e *Experiment) { e.metrics = reg } }
