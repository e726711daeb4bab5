package flux

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"

	"repro/internal/fed"
	"repro/internal/methods"
)

// RoundStats is what a Transport reports back for one executed round: its
// simulated seconds by Phase, traffic, participation census and, under an
// active AggregationSpec, versioning (see RoundEvent for each field). Both
// built-in transports return the server core's report as it is; over TCP
// the cohort is the connected peers, all of whom complete a synchronous
// round.
type RoundStats = fed.RoundStats

// Transport is an execution substrate for the synchronous round protocol.
// The engine's round loop owns the run — the simulated clock, evaluation,
// early stopping, the sinks — and Experiment.Run the events; the loop calls
// the transport once per round, and implementations own where and how the
// round's training actually happens.
//
// The interface names only public types, so transports can be implemented
// outside this module and selected with WithTransport. An implementation
// must be deterministic in the environment's seed (fluxtest.TestTransport
// checks the full contract, including that a method's rounds are
// bit-identical to the in-process reference).
type Transport interface {
	// Name identifies the transport in results ("in-process", "tcp").
	Name() string
	// Start binds the transport to a materialized environment and method.
	Start(ctx context.Context, env *Env, method string) error
	// Round executes synchronous round r, mutating env.Global in place, and
	// returns its report. The Experiment reads the report before the next
	// call and hands no handler its Phases map, so a transport may reuse
	// that map. Calling Round before a successful Start is an error, not a
	// panic.
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
	return t.env.RunRound(t.rounder, r)
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
// real socket and one goroutine per participant speaking the TCP wire
// protocol (gob envelopes around a binary encoding of the model and the
// update) — the same protocol cmd/fluxserver and cmd/fluxclient use across
// machines. Each participant runs the method's participant function for its
// slot on its own replica of the environment, so every registered method runs
// over it and every round is bit-identical to the same run in-process.
// Rounds are synchronous only, without a fleet.
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
	for i := range env.Cfg.Participants {
		rounder, err := methods.New(method, env.Cfg)
		if err != nil {
			return err
		}
		// Each participant's replica env starts the method's RNG stream
		// afresh, so its per-participant splits are the in-process ones.
		c := fed.ClientConfig{Participant: i, Addr: ln.Addr().String(), Env: env.CloneForMethod(method),
			Method: rounder, Index: i, IOTimeout: t.timeout}
		t.clients.Add(1)
		go func() {
			defer t.clients.Done()
			_, t.clientErrs[i] = fed.RunClientContext(clientCtx, c)
		}()
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
	return t.srv.RunRound(ctx, r)
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
