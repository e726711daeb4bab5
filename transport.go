package flux

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/fed"
	"repro/internal/methods"
	"repro/internal/simtime"
)

// RoundStats is what a Transport reports back for one executed round.
type RoundStats struct {
	// Phases maps phase name → simulated seconds; nil when the transport
	// does not model phase time (TCP runs in real time).
	Phases map[string]float64
	// UplinkBytes is the update payload participants uploaded this round —
	// modeled bytes in-process, actual wire bytes over TCP.
	UplinkBytes float64
	// DownlinkBytes is the payload the server broadcast to participants this
	// round — modeled bytes in-process, actual wire bytes over TCP.
	DownlinkBytes float64
	// ExpertsTouched is how many distinct experts aggregation updated.
	ExpertsTouched int
	// Selected/Completed/Dropped are the round's participation census (see
	// RoundEvent). Both built-in transports report what Env.FinishRound
	// counted; over TCP the cohort is the connected peers, all of whom
	// complete a synchronous round.
	Selected  int
	Completed int
	Dropped   int
	// ModelVersion/Stale/Pending describe event-driven aggregation (see
	// RoundEvent); zero under synchronous aggregation.
	ModelVersion int
	Stale        int
	Pending      int
}

// Transport is an execution substrate for the synchronous round protocol.
// The Experiment owns the loop — evaluation, early stopping, events — and
// calls the transport once per round; implementations own where and how the
// round's training actually happens.
//
// The interface names only public types, so transports can be implemented
// outside this module and selected with WithTransport. An implementation
// must be deterministic in the environment's seed (fluxtest.TestTransport
// checks the full contract, including that a wire-capable method's training
// math is bit-identical to the in-process reference).
type Transport interface {
	// Name identifies the transport in results ("in-process", "tcp").
	Name() string
	// Start binds the transport to a materialized environment and method.
	Start(ctx context.Context, env *Env, method string) error
	// Round executes synchronous round r, mutating env.Global in place.
	// Calling it before a successful Start is an error, not a panic.
	Round(ctx context.Context, r int) (RoundStats, error)
	// Close releases resources; it must be safe to call repeatedly and
	// after a failed Start.
	Close() error
}

// InProcess returns the simulation transport: rounds run in this process on
// the simulated consumer-GPU testbed, with per-phase simulated time. Every
// registered method is supported.
func InProcess() Transport { return &inProcess{} }

type inProcess struct {
	env     *Env
	rounder Rounder
}

func (t *inProcess) Name() string { return "in-process" }

func (t *inProcess) Start(ctx context.Context, env *Env, method string) error {
	rounder, err := methods.New(method, env.Cfg)
	if err != nil {
		return err
	}
	t.env, t.rounder = env, rounder
	return nil
}

func (t *inProcess) Round(ctx context.Context, r int) (RoundStats, error) {
	if t.rounder == nil {
		return RoundStats{}, errors.New("flux: in-process transport not started")
	}
	if err := ctx.Err(); err != nil {
		return RoundStats{}, err
	}
	phases := t.rounder.Round(t.env, r)
	if err := ctx.Err(); err != nil {
		return RoundStats{}, err
	}
	return roundStats(t.env.TakeRoundObs(), phases), nil
}

// roundStats is the one conversion from the round core's report to a
// transport's RoundStats: whatever FinishRound recorded is what a round says
// about itself, in-process and over TCP. phases is nil for a transport that
// runs in real time.
func roundStats(o fed.RoundObs, phases map[simtime.Phase]float64) RoundStats {
	var ps map[string]float64
	if phases != nil {
		ps = make(map[string]float64, len(phases))
		//fluxvet:unordered map-to-map copy; per-key writes, element order irrelevant
		for p, v := range phases {
			ps[string(p)] = v
		}
	}
	return RoundStats{
		Phases:         ps,
		UplinkBytes:    o.UplinkBytes,
		DownlinkBytes:  o.DownlinkBytes,
		ExpertsTouched: o.ExpertsTouched,
		Selected:       o.Selected,
		Completed:      o.Completed,
		Dropped:        o.Dropped,
		ModelVersion:   o.ModelVersion,
		Stale:          o.Stale,
		Pending:        o.Pending,
	}
}

func (t *inProcess) Close() error { return nil }

// TCPOption customizes the TCP transport.
type TCPOption func(*tcpTransport)

// TCPAddr sets the listen address; the default is an ephemeral loopback
// port.
func TCPAddr(addr string) TCPOption { return func(t *tcpTransport) { t.addr = addr } }

// TCPTimeout bounds every single protocol message exchange; the default is
// fed.DefaultIOTimeout.
func TCPTimeout(d time.Duration) TCPOption { return func(t *tcpTransport) { t.timeout = d } }

// TCP returns the deployment transport: a parameter server listening on a
// real socket and one goroutine per participant speaking the gob/TCP wire
// protocol — the same protocol cmd/fluxserver and cmd/fluxclient use across
// machines. Only wire-capable methods run over it (see Methods); training
// math is bit-identical to the same method in-process.
//
// Like an Experiment, a TCP transport is single-shot: build a fresh one per
// run.
func TCP(opts ...TCPOption) Transport {
	t := &tcpTransport{addr: "127.0.0.1:0"}
	for _, opt := range opts {
		if opt != nil {
			opt(t)
		}
	}
	return t
}

type tcpTransport struct {
	addr    string
	timeout time.Duration

	srv        *fed.Server
	ln         net.Listener
	cancel     context.CancelFunc
	clients    sync.WaitGroup
	clientErrs []error
	started    bool

	closeOnce sync.Once
	closeErr  error
}

func (t *tcpTransport) Name() string { return "tcp" }

func (t *tcpTransport) Start(ctx context.Context, env *Env, method string) error {
	if t.srv != nil {
		// Teardown is one-shot (closeOnce); a second run on a consumed
		// transport would skip the final broadcast and leak connections.
		return errors.New("flux: TCP transport already used; build a fresh one per run")
	}
	m, ok := methods.Get(method)
	if !ok {
		return fmt.Errorf("flux: unknown method %q (known: %v)", method, methods.Names())
	}
	if !m.Wire {
		return fmt.Errorf("flux: method %q cannot run over the TCP transport (its round logic is client-local); wire-capable methods: %v", method, wireMethodNames())
	}
	if env.Cfg.Fleet.Active() {
		return errors.New("flux: the TCP transport does not model fleets (device profiles, cohort selection, deadlines); run fleet scenarios on the in-process transport")
	}
	if mode := env.Cfg.Agg.Mode; mode != "" && mode != AggSync {
		return errors.New("flux: the TCP transport's wire protocol is synchronous; run async/semisync aggregation on the in-process transport")
	}
	ln, err := net.Listen("tcp", t.addr)
	if err != nil {
		return err
	}
	t.ln = ln
	t.srv = &fed.Server{Env: env, IOTimeout: t.timeout}

	// Participants live for the whole run; their context is canceled only
	// at Close (or by the caller's ctx), not when Start returns.
	clientCtx, cancel := context.WithCancel(ctx)
	t.cancel = cancel
	t.clientErrs = make([]error, env.Cfg.Participants)
	for i := 0; i < env.Cfg.Participants; i++ {
		t.clients.Add(1)
		go func(i int) {
			defer t.clients.Done()
			_, err := fed.RunClientContext(clientCtx, fed.ClientConfig{
				Participant: i,
				Addr:        ln.Addr().String(),
				Shard:       env.Shards[i],
				Batch:       env.Cfg.Batch,
				LocalIters:  env.Cfg.LocalIters,
				LR:          env.Cfg.LR,
				IOTimeout:   t.timeout,
			})
			t.clientErrs[i] = err
		}(i)
	}
	if err := t.srv.Accept(ctx, ln); err != nil {
		return err
	}
	t.started = true
	return nil
}

func (t *tcpTransport) Round(ctx context.Context, r int) (RoundStats, error) {
	if t.srv == nil {
		return RoundStats{}, errors.New("flux: TCP transport not started")
	}
	if err := t.srv.RunRound(ctx, r); err != nil {
		return RoundStats{}, err
	}
	return roundStats(t.srv.Env.TakeRoundObs(), nil), nil
}

// Close finishes the deployment: broadcast the final model so every
// participant exits cleanly, then tear down connections and wait for the
// client goroutines.
func (t *tcpTransport) Close() error {
	t.closeOnce.Do(func() {
		var finishErr error
		if t.srv != nil {
			if t.started {
				finishErr = t.srv.Finish(context.Background())
			}
			t.srv.Close()
		}
		if t.ln != nil {
			t.ln.Close()
		}
		if t.cancel != nil && (!t.started || finishErr != nil) {
			// No final broadcast is coming; release the clients now rather
			// than letting them wait out a read deadline.
			t.cancel()
		}
		t.clients.Wait()
		if t.cancel != nil {
			t.cancel()
		}
		if finishErr != nil {
			t.closeErr = finishErr
			return
		}
		t.closeErr = errors.Join(t.clientErrs...)
	})
	return t.closeErr
}

func wireMethodNames() []string {
	var out []string
	for _, m := range methods.All() {
		if m.Wire {
			out = append(out, m.Name)
		}
	}
	return out
}
