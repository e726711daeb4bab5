package fed

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/moe"
	"repro/internal/obs"
)

// This file implements a real network deployment of the federated loop: a
// parameter server and participants exchanging messages over TCP. It exists
// so the system can actually be run as separate processes (cmd/fluxserver,
// cmd/fluxclient) or driven round-by-round by the public SDK's TCP transport,
// not only as the in-process simulation the experiments use. The protocol is
// synchronous rounds, mirroring Figure 4: the server broadcasts the global
// model; each participant runs its method's own participant function on it,
// exactly as an in-process worker would, and uploads the whole SlotResult;
// and the server hands the arrivals to the server core (finishRound) — the
// same check, reduction, traffic, census, simulated time and participant
// records as an in-process round.
//
// Every message is one frame of the wire format in wire.go. The server
// writes each broadcast straight from the global model's tensors, one list of
// parts for every peer; a client decodes each broadcast into its replica's
// model in place as it arrives, and the server decodes each reply where it
// lands.
//
// The server is stepwise — Accept, then RunRound per round, then Finish — and
// its rounds run inside the engine's one round loop (Run): ServeContext is
// Accept, Run over RunRound, Finish, and the SDK's TCP transport hands
// RunRound to Experiment.Run, which calls the same loop. Every message
// exchange carries a read/write deadline and the whole lifecycle honors
// context cancellation.

// DefaultIOTimeout bounds a single message exchange (one message written or
// read) when the caller does not set an explicit timeout. It must cover the
// slowest participant's local fine-tuning between two server messages.
const DefaultIOTimeout = 2 * time.Minute

// maxHelloTimeout caps how long Accept waits for a single connection's
// Hello. A real client sends its Hello immediately after dialing, so this
// can be far shorter than the round I/O timeout; a silent connection must
// not stall fleet formation for minutes.
const maxHelloTimeout = 10 * time.Second

// peer is one end of a deployment connection. On the server it owns the
// SlotResult a reply is decoded into: the update's map, the arena whose
// memory the reply is read into and its parameter slices are windows of, and
// the phase map. The next read overwrites all of them, so whatever outlives
// the round must be copied out first — finishRound deep-copies (cloneUpdate)
// every update it carries over, and keeps nothing else of a slot. On a
// client it owns the read-ahead buffer a broadcast is decoded through and the
// writer its reply is encoded with.
type peer struct {
	conn    net.Conn
	id      int
	timeout time.Duration
	limit   int                 // maxMessageBytes of the deployment's model config
	word    [codec.IntSize]byte // a frame's length, as read

	slot  SlotResult
	arena []float64

	stream *bufio.Reader
	body   io.LimitedReader // the frame stream reads from
	enc    codec.Writer
	keys   []ExpertKey

	iov, out net.Buffers // a frame's parts, and the copy of them a write consumes
}

// newPeer wraps conn for a deployment of model config cfg: every frame read
// from it is bounded by maxMessageBytes(cfg).
func newPeer(conn net.Conn, cfg moe.Config, timeout time.Duration) *peer {
	return &peer{conn: conn, timeout: ioTimeout(timeout), limit: maxMessageBytes(cfg)}
}

// send writes one frame, built by beginFrame and frameParts, in one
// vectored write.
func (p *peer) send(parts net.Buffers) error {
	//fluxvet:allow wallclock real socket write deadline; network I/O is outside simulated time
	p.conn.SetWriteDeadline(time.Now().Add(p.timeout))
	return p.write(p.conn, parts)
}

// write writes parts to w through p's copy of the list, which the write
// consumes; parts itself is left for the next peer.
func (p *peer) write(w io.Writer, parts net.Buffers) error {
	p.iov = append(p.iov[:0], parts...)
	p.out = p.iov
	_, err := p.out.WriteTo(w)
	return err
}

// reading is p's connection with the read deadline of one message set.
func (p *peer) reading() net.Conn {
	//fluxvet:allow wallclock real socket read deadline; network I/O is outside simulated time
	p.conn.SetReadDeadline(time.Now().Add(p.timeout))
	return p.conn
}

// Server coordinates federated fine-tuning over TCP.
type Server struct {
	// Env is the run being deployed: Env.Global is the model broadcast and
	// aggregated into, Env.Cfg.Participants the peers Accept waits for, and
	// Env.Cfg.MaxRounds the rounds Run drives. Every round reduces through
	// the server core, whose report RunRound returns.
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
	round int          // rounds completed, stamps the final broadcast
	enc   codec.Writer // a broadcast's words and its parts, kept across rounds
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
// a Hello of this protocol version within the I/O timeout is dropped the same
// way. Peers are ordered
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
		p := newPeer(conn, s.Env.Global.Cfg, s.IOTimeout)
		stopConn := context.AfterFunc(ctx, func() { conn.Close() })
		helloTimeout := min(ioTimeout(s.IOTimeout), maxHelloTimeout)
		//fluxvet:allow wallclock real Hello-handshake deadline on the listener socket
		conn.SetReadDeadline(time.Now().Add(helloTimeout))
		var h Hello
		body, err := ReadFrame(conn, nil, helloSize)
		if err == nil {
			err = h.UnmarshalBinary(body)
		}
		stopConn()
		if err != nil {
			// A connection that cannot produce a Hello of this protocol in
			// time must not stall the fleet; drop it and keep listening.
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
// one SlotResult from every participant, and reduce them through the server
// core (finishRound) with the peers (in id order) as the round's cohort. It
// returns the core's report of the round. A peer whose slot fails the core's
// check fails the round with an error naming it, and nothing from that round
// is aggregated or reported — the same rule an in-process round meets.
// Cancelling ctx closes the peer connections, aborting in-flight exchanges
// promptly.
func (s *Server) RunRound(ctx context.Context, r int) (RoundStats, error) {
	peers := s.peersSnapshot()
	if len(peers) == 0 {
		return RoundStats{}, errors.New("fed: RunRound before Accept")
	}
	stop := context.AfterFunc(ctx, s.closePeers)
	defer stop()

	parts, err := s.broadcast(r, false)
	if err != nil {
		return RoundStats{}, err
	}
	for _, p := range peers {
		if err := p.send(parts); err != nil {
			return RoundStats{}, CtxErr(ctx, fmt.Errorf("fed: send round %d to %d: %w", r, p.id, err))
		}
	}

	// Collect slots concurrently; all must arrive (synchronous rounds).
	cohort := make([]int, len(peers))
	slots := make([]SlotResult, len(peers))
	var wg sync.WaitGroup
	errs := make([]error, len(peers))
	for i, p := range peers {
		cohort[i] = p.id
		wg.Add(1)
		go func(i int, p *peer) {
			defer wg.Done()
			if err := p.readSlot(p.reading()); err != nil {
				errs[i] = fmt.Errorf("fed: update from %d: %w", p.id, err)
			}
		}(i, p)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return RoundStats{}, CtxErr(ctx, err)
		}
		slots[i] = peers[i].slot
	}
	stats, err := s.Env.finishRound(cohort, slots)
	if err != nil {
		return RoundStats{}, err
	}
	s.mu.Lock()
	s.round = r + 1
	s.mu.Unlock()
	return stats, nil
}

// Finish broadcasts the final global model, releasing every participant,
// and closes the connections.
func (s *Server) Finish(ctx context.Context) error {
	peers := s.peersSnapshot()
	defer s.Close()
	stop := context.AfterFunc(ctx, s.closePeers)
	defer stop()

	s.mu.Lock()
	round := s.round
	s.mu.Unlock()
	parts, err := s.broadcast(round, true)
	if err != nil {
		return err
	}
	for _, p := range peers {
		if err := p.send(parts); err != nil {
			return CtxErr(ctx, fmt.Errorf("fed: final to %d: %w", p.id, err))
		}
	}
	return nil
}

// broadcast returns the frame of round's broadcast as the parts of one
// vectored write, built once and written to every peer: its words are kept
// in s.enc, and its floats are views of s.Env.Global's tensors, which nothing
// writes until every reply is in.
func (s *Server) broadcast(round int, final bool) (net.Buffers, error) {
	beginFrame(&s.enc)
	s.enc.Buf = appendBroadcastHeader(s.enc.Buf, round, final)
	if err := s.Env.Global.AppendEncoded(&s.enc); err != nil {
		return nil, err
	}
	return frameParts(&s.enc), nil
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

// ServeContext is Accept, Run over RunRound, then Finish: it accepts the
// deployment's participants on ln, runs s.Env.Cfg.MaxRounds synchronous rounds
// (reporting each into s.Metrics), and leaves the aggregated result in
// s.Env.Global. It returns after broadcasting the final model, or early with
// the first failed round's error (the context's, if canceled).
func (s *Server) ServeContext(ctx context.Context, ln net.Listener) error {
	if err := s.Accept(ctx, ln); err != nil {
		return err
	}
	defer s.Close()
	if _, err := Run(ctx, s.Env, s.RunRound, 0, s.Metrics, nil); err != nil {
		return err
	}
	return s.Finish(ctx)
}

// ClientConfig configures a TCP participant.
type ClientConfig struct {
	// Participant is the id the client's Hello claims and its updates carry.
	Participant int
	Addr        string
	// Env is the client's replica of the run; every broadcast must hold a
	// model of Env.Global's config, and is decoded into Env.Global in place,
	// so nothing else may share that model.
	Env *Env
	// Method is the client's own Rounder, and Index its participant index
	// in Env.
	Method Rounder
	Index  int
	// IOTimeout bounds every single message exchange; zero means
	// DefaultIOTimeout.
	IOTimeout time.Duration
}

// RunClientContext joins the server at cfg.Addr and participates until the
// final model arrives, which it returns. Every round it decodes the broadcast
// model from the connection into cfg.Env.Global in place as it arrives, calls
// cfg.Method.Round for Env's cohort, runs the participant function for its
// own slot on one persistent Scratch, and uploads the whole SlotResult under
// its Hello id — the slot an in-process worker would have computed — written
// straight from the update's parameters, and then runs the work the function
// handed back (SlotResult.After) while the server aggregates. A broadcast over
// the message bound fails the client with an error naming the round. One cut
// short, of another model config, or of any round but the next fails it the
// same way and leaves Env.Global nil: a model decoded only in part is never
// used. Cancelling ctx closes the connection, aborting whatever exchange or
// wait is in flight.
func RunClientContext(ctx context.Context, cfg ClientConfig) (*moe.Model, error) {
	env := cfg.Env
	switch {
	case env == nil || env.Global == nil:
		return nil, fmt.Errorf("fed: client %d: Env must hold a model", cfg.Participant)
	case cfg.Method == nil:
		return nil, fmt.Errorf("fed: client %d: Method is nil", cfg.Participant)
	case cfg.Index < 0 || cfg.Index >= len(env.Shards):
		return nil, fmt.Errorf("fed: client %d: Index %d is not one of Env's %d participants", cfg.Participant, cfg.Index, len(env.Shards))
	case len(env.Shards[cfg.Index]) == 0:
		return nil, fmt.Errorf("fed: client %d has no data", cfg.Participant)
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", cfg.Addr)
	if err != nil {
		return nil, CtxErr(ctx, err)
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	p := newPeer(conn, env.Global.Cfg, cfg.IOTimeout)
	hello, _ := Hello{Participant: cfg.Participant}.MarshalBinary()
	beginFrame(&p.enc)
	p.enc.Buf = append(p.enc.Buf, hello...)
	if err := p.send(frameParts(&p.enc)); err != nil {
		return nil, CtxErr(ctx, err)
	}
	s := newScratch(env.methodName())
	for next := 0; ; {
		src := p.reading()
		n, err := readLength(src, p.word[:], p.limit)
		if err != nil {
			return nil, CtxErr(ctx, fmt.Errorf("fed: client %d: round %d broadcast from %s: %w", cfg.Participant, next, cfg.Addr, err))
		}
		round, final, err := p.decodeBroadcast(src, n, next, env.Global)
		env.dropQuantized() // the decode rewrote the whole model in place
		if err != nil {
			env.Global = nil
			return nil, CtxErr(ctx, fmt.Errorf("fed: client %d: %w", cfg.Participant, err))
		}
		if final {
			return env.Global, nil
		}
		cohort := env.Cohort(round)
		participant := cfg.Method.Round(env, round, cohort)
		s.off = 0
		res := s.run(participant, slices.Index(cohort, cfg.Index), cfg.Index)
		res.Update.Participant = cfg.Participant
		beginFrame(&p.enc)
		p.keys = encodeSlot(&p.enc, res, p.keys)
		if err := p.send(frameParts(&p.enc)); err != nil {
			return nil, CtxErr(ctx, err)
		}
		if res.After != nil && ctx.Err() == nil {
			res.After(s) // while the server aggregates
		}
		next = round + 1
	}
}

// IdentityTuning returns per-layer expert-id lists naming every expert — the
// tuning set of a full-model method.
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
