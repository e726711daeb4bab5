package flux

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/data"
	"repro/internal/fed"
	"repro/internal/moe"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// BaseModel returns a pre-trained MoE base model for the named architecture
// ("llama" or "deepseek"): the stand-in for a capable pre-trained LLM that
// participants adapt by expert-only fine-tuning. Models are cached per
// (architecture, pretrainSteps); the returned clone may be mutated freely.
// pretrainSteps ≤ 0 uses the default from DefaultConfig.
func BaseModel(model string, pretrainSteps int) (*moe.Model, error) {
	return baseModelContext(context.Background(), model, pretrainSteps)
}

func baseModelContext(ctx context.Context, model string, pretrainSteps int) (*moe.Model, error) {
	modelCfg, err := modelConfigByName(model)
	if err != nil {
		return nil, err
	}
	fcfg := fed.DefaultConfig()
	if pretrainSteps > 0 {
		fcfg.PretrainSteps = pretrainSteps
	}
	return fed.BaseModelContext(ctx, modelCfg, fcfg)
}

// ServerConfig configures a cross-machine parameter-server deployment
// (cmd/fluxserver wraps this).
type ServerConfig struct {
	Addr string // listen address; default 127.0.0.1:7700
	// Listener, if non-nil, is used instead of listening on Addr; Serve
	// takes ownership and closes it. It exists so tests and embedders can
	// serve on an ephemeral port they already know.
	Listener      net.Listener
	Clients       int    // participants to wait for
	Rounds        int    // synchronous federated rounds
	Model         string // "llama" (default) or "deepseek"
	PretrainSteps int    // base-model pre-training steps; default per DefaultConfig
	// IOTimeout bounds each protocol message exchange; zero uses the
	// transport default.
	IOTimeout time.Duration
	// CheckpointPath, if set, receives the final aggregated model.
	CheckpointPath string
	// MetricsAddr, if set, serves live deployment metrics (rounds, wire
	// traffic, model version, connected clients) in Prometheus text format
	// at http://<MetricsAddr>/metrics for the lifetime of the deployment.
	// The endpoint is up before the base model builds, so a scrape works
	// while the server is still waiting for participants.
	MetricsAddr string
	// Metrics, if non-nil, receives the same live counters and gauges
	// directly — for embedders that already run an HTTP server and want to
	// mount the registry themselves. Set at most one of MetricsAddr and
	// Metrics.
	Metrics *MetricsRegistry
	// Logf, if set, receives progress lines (e.g. log.Printf).
	Logf func(format string, args ...any)
}

func (c ServerConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Serve runs the parameter-server side of a real TCP deployment: build the
// pre-trained base model, wait for cfg.Clients participants, run cfg.Rounds
// synchronous rounds, broadcast the final model. Cancelling ctx stops the
// deployment cleanly at the next protocol step.
func Serve(ctx context.Context, cfg ServerConfig) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Listener != nil {
		// Ownership is unconditional: the injected listener is closed even
		// when validation or base-model construction fails before serving.
		defer cfg.Listener.Close()
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:7700"
	}
	if cfg.Model == "" {
		cfg.Model = "llama"
	}
	if cfg.Clients <= 0 {
		return fmt.Errorf("flux: server needs a positive client count, got %d", cfg.Clients)
	}
	if cfg.Rounds <= 0 {
		return fmt.Errorf("flux: server needs a positive round count, got %d", cfg.Rounds)
	}
	if cfg.MetricsAddr != "" && cfg.Metrics != nil {
		return fmt.Errorf("flux: set at most one of MetricsAddr and Metrics")
	}
	metrics := cfg.Metrics
	if metrics != nil {
		obs.RegisterStandard(metrics)
	}
	if cfg.MetricsAddr != "" {
		// The scrape endpoint comes up before the (slow) base-model build so
		// monitoring can attach while the deployment is still warming up;
		// the full series set is registered at zero so even the first scrape
		// is complete.
		metrics = NewMetricsRegistry()
		obs.RegisterStandard(metrics)
		mln, err := net.Listen("tcp", cfg.MetricsAddr)
		if err != nil {
			return fmt.Errorf("flux: metrics listener: %w", err)
		}
		defer mln.Close()
		mux := http.NewServeMux()
		mux.Handle("/metrics", metrics)
		msrv := &http.Server{Handler: mux}
		go msrv.Serve(mln)
		defer msrv.Close()
		cfg.logf("flux: metrics on http://%s/metrics", mln.Addr())
	}
	model, err := baseModelContext(ctx, cfg.Model, cfg.PretrainSteps)
	if err != nil {
		return err
	}
	ln := cfg.Listener
	if ln == nil {
		ln, err = net.Listen("tcp", cfg.Addr)
		if err != nil {
			return err
		}
		defer ln.Close()
	}
	cfg.logf("flux: serving on %s, waiting for %d participants", ln.Addr(), cfg.Clients)

	// A deployment's Env is the engine defaults plus the base model: no
	// shards, devices or test set — participants bring their own data.
	fcfg := fed.DefaultConfig()
	fcfg.Participants, fcfg.MaxRounds = cfg.Clients, cfg.Rounds
	srv := &fed.Server{Env: &fed.Env{Cfg: fcfg, Global: model}, IOTimeout: cfg.IOTimeout, Metrics: metrics}
	if err := srv.ServeContext(ctx, ln); err != nil {
		return err
	}
	cfg.logf("flux: completed %d rounds", cfg.Rounds)
	if cfg.CheckpointPath != "" {
		if err := model.SaveFile(cfg.CheckpointPath); err != nil {
			return err
		}
		cfg.logf("flux: final model saved to %s", cfg.CheckpointPath)
	}
	return nil
}

// JoinConfig configures one federated participant joining a Serve
// deployment (cmd/fluxclient wraps this).
type JoinConfig struct {
	Addr        string // server address
	Participant int    // participant id; must be unique across the fleet
	Dataset     string // dolly | gsm8k | mmlu | piqa; default gsm8k
	Model       string // must match the server's architecture; default llama
	Samples     int    // local shard size; default 40
	Batch       int    // mini-batch size; default 6
	LocalIters  int    // local iterations per round; default 2
	LR          float64
	IOTimeout   time.Duration
	Logf        func(format string, args ...any)
}

// JoinResult reports a completed participation.
type JoinResult struct {
	Params int // parameter count of the final global model received
}

// Join connects to the server, participates in every round with a locally
// generated synthetic shard, and returns once the final model arrives.
// Cancelling ctx drops the connection and returns the context's error.
func Join(ctx context.Context, cfg JoinConfig) (JoinResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:7700"
	}
	if cfg.Dataset == "" {
		cfg.Dataset = "gsm8k"
	}
	if cfg.Model == "" {
		cfg.Model = "llama"
	}
	if cfg.Samples <= 0 {
		cfg.Samples = 40
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 6
	}
	if cfg.LocalIters <= 0 {
		cfg.LocalIters = 2
	}
	if cfg.LR <= 0 {
		cfg.LR = 2.0
	}
	profile, err := data.ProfileByName(cfg.Dataset)
	if err != nil {
		return JoinResult{}, fmt.Errorf("flux: %w", err)
	}
	modelCfg, err := modelConfigByName(cfg.Model)
	if err != nil {
		return JoinResult{}, err
	}
	shard := data.Generate(profile, modelCfg.VocabSize, cfg.Samples,
		tensor.Named("client-shard").Split(fmt.Sprintf("p%d", cfg.Participant)))
	if cfg.Logf != nil {
		cfg.Logf("flux: participant %d joining %s with %d %s samples",
			cfg.Participant, cfg.Addr, cfg.Samples, cfg.Dataset)
	}
	final, err := fed.RunClientContext(ctx, fed.ClientConfig{
		Participant: cfg.Participant,
		Addr:        cfg.Addr,
		Shard:       shard.Samples,
		Batch:       cfg.Batch,
		LocalIters:  cfg.LocalIters,
		LR:          cfg.LR,
		IOTimeout:   cfg.IOTimeout,
	})
	if err != nil {
		return JoinResult{}, err
	}
	return JoinResult{Params: final.Cfg.TotalParams()}, nil
}
