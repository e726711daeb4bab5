package fed

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/moe"
	"repro/internal/obs"
)

// This file implements a real network deployment of the federated loop: a
// parameter server and participants exchanging gob-encoded messages over
// TCP. It exists so the system can actually be run as separate processes
// (cmd/fluxserver, cmd/fluxclient) or driven round-by-round by the public
// SDK's TCP transport, not only as the in-process simulation the
// experiments use. The protocol is synchronous rounds, mirroring Figure 4:
// server broadcasts the global model, each participant fine-tunes its tuning
// experts locally (LocalSGD over BatchOf, the in-process loop) and uploads
// them, and the server hands the validated arrivals to Env.FinishRound — the
// same reduction, census and participant records as an in-process round.
//
// The server is stepwise — Accept, then RunRound per round, then Finish —
// so an external driver owns the round loop; ServeContext composes the steps
// for standalone use. Every message exchange carries a read/write deadline
// and the whole lifecycle honors context cancellation.

// DefaultIOTimeout bounds a single message exchange (one gob encode or
// decode) when the caller does not set an explicit timeout. It must cover
// the slowest participant's local fine-tuning between two server messages.
const DefaultIOTimeout = 2 * time.Minute

// maxHelloTimeout caps how long Accept waits for a single connection's
// Hello. A real client sends its Hello immediately after dialing, so this
// can be far shorter than the round I/O timeout; a silent connection must
// not stall fleet formation for minutes.
const maxHelloTimeout = 10 * time.Second

// Hello is the first message a participant sends after connecting.
type Hello struct {
	Participant int
}

// RoundMsg is the server's per-round broadcast.
type RoundMsg struct {
	Round int
	Final bool   // no more rounds; Model holds the final global model
	Model []byte // gob-encoded moe.Model
}

// UpdateMsg is a participant's reply: the experts it fine-tuned.
type UpdateMsg struct {
	Participant int
	Weight      float64
	Experts     map[ExpertKey][]float64
}

type peer struct {
	conn    net.Conn
	enc     *gob.Encoder
	dec     *gob.Decoder
	id      int
	timeout time.Duration
}

func (p *peer) send(v any) error {
	//fluxvet:allow wallclock real socket write deadline; network I/O is outside simulated time
	p.conn.SetWriteDeadline(time.Now().Add(p.timeout))
	return p.enc.Encode(v)
}

func (p *peer) recv(v any) error {
	//fluxvet:allow wallclock real socket read deadline; network I/O is outside simulated time
	p.conn.SetReadDeadline(time.Now().Add(p.timeout))
	return p.dec.Decode(v)
}

// Server coordinates federated fine-tuning over TCP.
type Server struct {
	// Env is the run being deployed: Env.Global is the model broadcast and
	// aggregated into, Env.Cfg.Participants the peers Accept waits for, and
	// Env.Cfg.MaxRounds the rounds ServeContext runs (stepwise drivers may
	// ignore it). Every round reduces through Env.FinishRound, so a driver
	// reads the round's traffic and census from Env.TakeRoundObs.
	Env *Env

	// IOTimeout bounds every single message exchange (Hello, broadcast,
	// update, final). Zero means DefaultIOTimeout.
	IOTimeout time.Duration

	// Metrics, when non-nil, receives live counters and gauges (rounds,
	// wire traffic, model version, connected clients) as the deployment
	// runs, for scraping via the registry's /metrics handler. Nil costs
	// nothing and changes nothing.
	Metrics *obs.Registry

	mu    sync.Mutex
	peers []*peer
	round int // rounds completed, stamps the final broadcast
}

// ioTimeout resolves a per-message timeout setting: zero means
// DefaultIOTimeout.
func ioTimeout(d time.Duration) time.Duration {
	if d > 0 {
		return d
	}
	return DefaultIOTimeout
}

func (s *Server) peersSnapshot() []*peer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*peer(nil), s.peers...)
}

func (s *Server) closePeers() {
	for _, p := range s.peersSnapshot() {
		p.conn.Close()
	}
}

// CtxErr prefers the context's error (the caller canceled) over the I/O
// error it caused (a closed connection).
func CtxErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// Accept waits until s.Env.Cfg.Participants distinct participants have joined
// on ln. A connection whose Hello carries an already-claimed participant id
// is rejected (closed) and does not count; a connection that fails to deliver
// a Hello within the I/O timeout is dropped the same way. Peers are ordered
// by participant id so aggregation order — and therefore floating-point
// accumulation — is deterministic regardless of connection order.
func (s *Server) Accept(ctx context.Context, ln net.Listener) error {
	stop := context.AfterFunc(ctx, func() { ln.Close() })
	defer stop()

	seen := make(map[int]bool)
	var peers []*peer
	fail := func(err error) error {
		for _, p := range peers {
			p.conn.Close()
		}
		return CtxErr(ctx, err)
	}
	for len(peers) < s.Env.Cfg.Participants {
		conn, err := ln.Accept()
		if err != nil {
			return fail(fmt.Errorf("fed: accept: %w", err))
		}
		p := &peer{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn), timeout: ioTimeout(s.IOTimeout)}
		stopConn := context.AfterFunc(ctx, func() { conn.Close() })
		helloTimeout := min(ioTimeout(s.IOTimeout), maxHelloTimeout)
		//fluxvet:allow wallclock real Hello-handshake deadline on the listener socket
		conn.SetReadDeadline(time.Now().Add(helloTimeout))
		var h Hello
		err = p.dec.Decode(&h)
		stopConn()
		if err != nil {
			// A connection that cannot produce a Hello in time must not
			// stall the fleet; drop it and keep listening.
			conn.Close()
			if ctx.Err() != nil {
				return fail(fmt.Errorf("fed: hello: %w", err))
			}
			continue
		}
		if seen[h.Participant] {
			// Duplicate participant id: reject the newcomer.
			conn.Close()
			continue
		}
		seen[h.Participant] = true
		p.id = h.Participant
		peers = append(peers, p)
		// Tick the gauge per accepted Hello: the assembly wait is exactly
		// when an operator watches connected_clients climb.
		if s.Metrics != nil {
			s.Metrics.Gauge(obs.MetricClients, "").Set(float64(len(peers)))
		}
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].id < peers[j].id })
	s.mu.Lock()
	s.peers = peers
	s.mu.Unlock()
	return nil
}

// RunRound executes synchronous round r: broadcast the global model, collect
// and validate one update from every participant, and reduce them through
// Env.FinishRound with the peers (in id order) as the round's cohort. A peer
// whose update fails checkUpdate fails the round with an error naming it, and
// nothing from that round reaches the core. Cancelling ctx closes the peer
// connections, aborting in-flight exchanges promptly.
func (s *Server) RunRound(ctx context.Context, r int) error {
	peers := s.peersSnapshot()
	if len(peers) == 0 {
		return errors.New("fed: RunRound before Accept")
	}
	stop := context.AfterFunc(ctx, s.closePeers)
	defer stop()

	blob, err := s.Env.Global.EncodeBytes()
	if err != nil {
		return err
	}
	msg := RoundMsg{Round: r, Model: blob}
	for _, p := range peers {
		if err := p.send(msg); err != nil {
			return CtxErr(ctx, fmt.Errorf("fed: send round %d to %d: %w", r, p.id, err))
		}
	}

	// Collect updates concurrently; all must arrive (synchronous rounds).
	cohort := make([]int, len(peers))
	slots := make([]SlotResult, len(peers))
	var wg sync.WaitGroup
	errs := make([]error, len(peers))
	for i, p := range peers {
		cohort[i] = p.id
		wg.Add(1)
		go func(i int, p *peer) {
			defer wg.Done()
			var msg UpdateMsg
			if err := p.recv(&msg); err != nil {
				errs[i] = fmt.Errorf("fed: update from %d: %w", p.id, err)
				return
			}
			if err := checkUpdate(s.Env.Global, p.id, msg); err != nil {
				errs[i] = fmt.Errorf("fed: update from %d rejected: %w", p.id, err)
				return
			}
			u := Update{Participant: msg.Participant, Weight: msg.Weight, Experts: msg.Experts}
			slots[i] = SlotResult{Update: u, Bytes: UpdateBytes(u), DownBytes: float64(len(blob))}
		}(i, p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return CtxErr(ctx, err)
		}
	}
	// The returned phase map is dropped: without per-slot phases it holds
	// only the modeled server seconds, and a deployment runs in real time.
	s.Env.FinishRound(cohort, slots)
	s.mu.Lock()
	s.round = r + 1
	s.mu.Unlock()
	return nil
}

// maxWireWeight bounds an update's aggregation weight (a sample count).
// Together with the FP32 bound on parameters it keeps FedAvg's Σw·v / Σw
// finite for any number of accepted updates.
const maxWireWeight = 1 << 40

// checkUpdate rejects a decoded update that Aggregate could not apply safely:
// one that claims another participant's id, carries a weight that is neither
// zero (unweighted) nor in [1, maxWireWeight], names an expert the global
// model does not have, or whose parameter slice has the wrong length or a
// value outside the FP32 range the wire is priced at (NaN and ±Inf included).
func checkUpdate(global *moe.Model, peerID int, u UpdateMsg) error {
	if u.Participant != peerID {
		return fmt.Errorf("claims participant %d", u.Participant)
	}
	if u.Weight != 0 && !(u.Weight >= 1 && u.Weight <= maxWireWeight) {
		return fmt.Errorf("weight %v", u.Weight)
	}
	// Walk the model's experts rather than the update's map, so the first
	// error found does not depend on map order.
	known := 0
	for l, layer := range global.Layers {
		for orig := range layer.Routing {
			key := ExpertKey{Layer: l, Expert: orig}
			params, ok := u.Experts[key]
			if !ok {
				continue
			}
			known++
			if want := global.ExpertAt(l, orig).Params(); len(params) != want {
				return fmt.Errorf("expert %+v has %d parameters, want %d", key, len(params), want)
			}
			for _, v := range params {
				if !(math.Abs(v) <= math.MaxFloat32) { // also NaN and ±Inf
					return fmt.Errorf("expert %+v has a parameter outside the FP32 range", key)
				}
			}
		}
	}
	if known != len(u.Experts) {
		return fmt.Errorf("names %d experts the model does not have", len(u.Experts)-known)
	}
	return nil
}

// Finish broadcasts the final global model, releasing every participant,
// and closes the connections.
func (s *Server) Finish(ctx context.Context) error {
	peers := s.peersSnapshot()
	defer s.Close()
	stop := context.AfterFunc(ctx, s.closePeers)
	defer stop()

	blob, err := s.Env.Global.EncodeBytes()
	if err != nil {
		return err
	}
	s.mu.Lock()
	final := RoundMsg{Round: s.round, Final: true, Model: blob}
	s.mu.Unlock()
	for _, p := range peers {
		if err := p.send(final); err != nil {
			return CtxErr(ctx, fmt.Errorf("fed: final to %d: %w", p.id, err))
		}
	}
	return nil
}

// Close drops all peer connections. It is safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	peers := s.peers
	s.peers = nil
	s.mu.Unlock()
	for _, p := range peers {
		p.conn.Close()
	}
	if s.Metrics != nil && len(peers) > 0 {
		s.Metrics.Gauge(obs.MetricClients, "").Set(0)
	}
	return nil
}

// ServeContext accepts the deployment's participants on ln, runs
// s.Env.Cfg.MaxRounds synchronous rounds, and leaves the aggregated result in
// s.Env.Global. It returns after broadcasting the final model, or early with
// the context's error if canceled.
func (s *Server) ServeContext(ctx context.Context, ln net.Listener) error {
	if err := s.Accept(ctx, ln); err != nil {
		return err
	}
	defer s.Close()
	for r := 0; r < s.Env.Cfg.MaxRounds; r++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := s.RunRound(ctx, r); err != nil {
			return err
		}
		s.Metrics.ObserveRound(s.Env.TakeRoundObs().round(r + 1))
	}
	return s.Finish(ctx)
}

// ClientConfig configures a TCP participant. Batch, LocalIters and LR have no
// defaults here: RunClientContext rejects a non-positive one by name.
type ClientConfig struct {
	Participant int
	Addr        string
	Shard       []*data.Sample
	Batch       int
	LocalIters  int
	LR          float64
	// IOTimeout bounds every single message exchange; zero means
	// DefaultIOTimeout.
	IOTimeout time.Duration
}

// RunClientContext joins the server at cfg.Addr and participates until the
// final model arrives, which it returns: every round it fine-tunes the whole
// broadcast model with LocalSGD over BatchOf(cfg.Shard, cfg.Batch, round) and
// uploads every expert. Cancelling ctx closes the connection, aborting
// whatever exchange or wait is in flight.
func RunClientContext(ctx context.Context, cfg ClientConfig) (*moe.Model, error) {
	switch {
	case len(cfg.Shard) == 0:
		return nil, fmt.Errorf("fed: client %d has no data", cfg.Participant)
	case cfg.Batch <= 0:
		return nil, fmt.Errorf("fed: client %d: Batch %d must be positive", cfg.Participant, cfg.Batch)
	case cfg.LocalIters <= 0:
		return nil, fmt.Errorf("fed: client %d: LocalIters %d must be positive", cfg.Participant, cfg.LocalIters)
	case !(cfg.LR > 0):
		return nil, fmt.Errorf("fed: client %d: LR %v must be positive", cfg.Participant, cfg.LR)
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", cfg.Addr)
	if err != nil {
		return nil, CtxErr(ctx, err)
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	p := &peer{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn), timeout: ioTimeout(cfg.IOTimeout)}
	if err := p.send(Hello{Participant: cfg.Participant}); err != nil {
		return nil, CtxErr(ctx, err)
	}
	for {
		var msg RoundMsg
		if err := p.recv(&msg); err != nil {
			return nil, CtxErr(ctx, fmt.Errorf("fed: client %d recv: %w", cfg.Participant, err))
		}
		model, err := moe.DecodeBytes(msg.Model)
		if err != nil {
			return nil, err
		}
		if msg.Final {
			return model, nil
		}
		LocalSGD(model, moe.NewWorkspace(), moe.NewGrads(model, false),
			BatchOf(cfg.Shard, cfg.Batch, msg.Round), cfg.LocalIters, cfg.LR)
		u := ExtractUpdate(model, cfg.Participant, float64(len(cfg.Shard)), IdentityTuning(model.Cfg))
		if err := p.send(UpdateMsg{Participant: u.Participant, Weight: u.Weight, Experts: u.Experts}); err != nil {
			return nil, CtxErr(ctx, err)
		}
	}
}

// IdentityTuning returns per-layer expert-id lists naming every expert — the
// tuning set of a full-model method, and what a wire client fine-tunes and
// uploads.
func IdentityTuning(cfg moe.Config) [][]int {
	out := make([][]int, cfg.Layers())
	for l, n := range cfg.ExpertsPerLayer {
		ids := make([]int, n)
		for e := range ids {
			ids[e] = e
		}
		out[l] = ids
	}
	return out
}
