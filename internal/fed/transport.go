package fed

import (
	"bufio"
	"cmp"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/moe"
	"repro/internal/obs"
)

// This file implements a real network deployment of the federated loop: a
// parameter server and participants exchanging messages over TCP. Each
// message is a gob envelope (Hello, RoundMsg, SlotResult) whose tensors are
// package codec's binary encoding: the model as moe.EncodeBytes writes it,
// the update as Update.GobEncode does. It exists so the system can actually
// be run as separate processes (cmd/fluxserver, cmd/fluxclient) or driven
// round-by-round by the public SDK's TCP transport, not only as the
// in-process simulation the experiments use. The protocol is synchronous
// rounds, mirroring Figure 4: the server broadcasts the global model; each
// participant runs its method's own participant function on it, exactly as
// an in-process worker would, and uploads the whole SlotResult; and the
// server hands the arrivals to the server core (finishRound) — the same
// check, reduction, traffic, census, simulated time and participant records
// as an in-process round. Every message either end reads is bounded in size
// by the model config (maxMessageBytes) before gob allocates it.
//
// The server is stepwise — Accept, then RunRound per round, then Finish —
// so an external driver owns the round loop; ServeContext composes the steps
// for standalone use. Every message exchange carries a read/write deadline
// and the whole lifecycle honors context cancellation.

// DefaultIOTimeout bounds a single message exchange (one message encoded or
// decoded) when the caller does not set an explicit timeout. It must cover
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
	Model []byte // the global model as moe.EncodeBytes writes it
}

// UpdateMsg is the Update a participant's reply carries. The reply itself is
// the participant function's whole SlotResult: the update, its modeled
// traffic and its per-phase simulated seconds.
type UpdateMsg = Update

// GobEncode writes u in package codec's encoding, which gob carries as one
// byte string: the participant, the weight, the expert count, then per expert
// in (layer, expert) order its key and parameters. The sorted order makes the
// bytes a function of u's contents, which gob's own map encoding is not.
func (u Update) GobEncode() ([]byte, error) {
	keys := make([]ExpertKey, 0, len(u.Experts))
	for k := range u.Experts {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compareKeys)
	n := 3 * codec.IntSize
	for _, k := range keys {
		n += 2*codec.IntSize + codec.SeqSize(len(u.Experts[k]))
	}
	b := codec.AppendFloat(codec.AppendInt(make([]byte, 0, n), u.Participant), u.Weight)
	b = codec.AppendInt(b, len(keys))
	for _, k := range keys {
		b = codec.AppendFloats(codec.AppendInt(codec.AppendInt(b, k.Layer), k.Expert), u.Experts[k])
	}
	return b, nil
}

// GobDecode reads an update written by GobEncode. Every count is checked
// against the bytes left before it is allocated; keys out of order (a
// duplicate among them) and trailing bytes are errors.
func (u *Update) GobDecode(b []byte) error {
	r := codec.NewReader(b)
	dec := Update{Participant: r.Int(), Weight: r.Float()}
	if n := r.Count("experts", 3*codec.IntSize); n > 0 {
		dec.Experts = make(map[ExpertKey][]float64, n)
		var prev ExpertKey
		for i := range n {
			k := ExpertKey{Layer: r.Int(), Expert: r.Int()}
			if i > 0 && compareKeys(prev, k) >= 0 {
				r.Failf("expert %v follows %v", k, prev)
			}
			dec.Experts[k], prev = r.Floats("expert parameters"), k
		}
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("fed: decode update: %w", err)
	}
	*u = dec
	return nil
}

func compareKeys(a, b ExpertKey) int {
	return cmp.Or(cmp.Compare(a.Layer, b.Layer), cmp.Compare(a.Expert, b.Expert))
}

type peer struct {
	conn    net.Conn
	enc     *gob.Encoder
	dec     *gob.Decoder
	id      int
	timeout time.Duration
}

// newPeer wraps conn for a deployment of model config cfg: every message
// read from it is bounded by maxMessageBytes(cfg).
func newPeer(conn net.Conn, cfg moe.Config, timeout time.Duration) *peer {
	return &peer{conn: conn, enc: gob.NewEncoder(conn), dec: newBoundedDecoder(conn, maxMessageBytes(cfg)), timeout: ioTimeout(timeout)}
}

// maxMessageBytes bounds one gob message of a deployment of model config
// cfg. The largest legitimate messages are the broadcast, whose model blob is
// moe.EncodedSize(cfg) bytes, and a full-model SlotResult, whose update holds
// only the experts' parameters and so is smaller; 64 KiB on top covers the
// gob envelope and type descriptors.
func maxMessageBytes(cfg moe.Config) int { return moe.EncodedSize(cfg) + 1<<16 }

// newBoundedDecoder returns a gob decoder on r that fails any message longer
// than limit bytes when it reads the message's length prefix, before gob
// allocates the message.
func newBoundedDecoder(r io.Reader, limit int) *gob.Decoder {
	return gob.NewDecoder(&boundedReader{r: bufio.NewReader(r), limit: limit})
}

// boundedReader passes a gob stream through unchanged while parsing each
// message's length prefix (gob's unsigned-integer encoding: one byte below
// 0x80, otherwise the negated count of big-endian bytes that follow).
type boundedReader struct {
	r     *bufio.Reader
	limit int
	left  int    // body bytes of the current message not yet passed on
	hdr   []byte // length-prefix bytes not yet passed on
	buf   [9]byte
}

func (b *boundedReader) Read(p []byte) (int, error) {
	if len(b.hdr) == 0 && b.left == 0 {
		c, err := b.r.ReadByte()
		if err != nil {
			return 0, err
		}
		b.buf[0] = c
		n, size := 0, uint64(c)
		if c >= 0x80 {
			if n = -int(int8(c)); n < 1 || n > 8 {
				return 0, errors.New("malformed message length")
			}
			if _, err := io.ReadFull(b.r, b.buf[1:1+n]); err != nil {
				return 0, err
			}
			size = 0
			for _, d := range b.buf[1 : 1+n] {
				size = size<<8 | uint64(d)
			}
		}
		if size > uint64(b.limit) {
			return 0, fmt.Errorf("message of %d bytes exceeds the %d-byte bound", size, b.limit)
		}
		b.hdr, b.left = b.buf[:1+n], int(size)
	}
	if len(b.hdr) > 0 {
		n := copy(p, b.hdr)
		b.hdr = b.hdr[n:]
		return n, nil
	}
	if len(p) > b.left {
		p = p[:b.left]
	}
	n, err := b.r.Read(p)
	b.left -= n
	return n, err
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
	// ignore it). Every round reduces through the server core, whose report
	// RunRound returns.
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
		p := newPeer(conn, s.Env.Global.Cfg, s.IOTimeout)
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
// one SlotResult from every participant, and reduce them through the server
// core (finishRound) with the peers (in id order) as the round's cohort. It
// returns the core's report of the round. A peer whose slot fails the core's
// check fails the round with an error naming it (counted in Metrics'
// rejected-updates series), and nothing from that round is aggregated or
// reported — the same rule an in-process round meets. Cancelling ctx closes
// the peer connections, aborting in-flight exchanges promptly.
func (s *Server) RunRound(ctx context.Context, r int) (RoundStats, error) {
	peers := s.peersSnapshot()
	if len(peers) == 0 {
		return RoundStats{}, errors.New("fed: RunRound before Accept")
	}
	stop := context.AfterFunc(ctx, s.closePeers)
	defer stop()

	blob, err := s.Env.Global.EncodeBytes()
	if err != nil {
		return RoundStats{}, err
	}
	msg := RoundMsg{Round: r, Model: blob}
	for _, p := range peers {
		if err := p.send(msg); err != nil {
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
			if err := p.recv(&slots[i]); err != nil {
				errs[i] = fmt.Errorf("fed: update from %d: %w", p.id, err)
			}
		}(i, p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return RoundStats{}, CtxErr(ctx, err)
		}
	}
	stats, err := s.Env.finishRound(cohort, slots)
	if err != nil {
		if s.Metrics != nil && errors.Is(err, ErrRejected) {
			s.Metrics.Counter(obs.MetricRejectedUpdates, "").Add(1)
		}
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
		stats, err := s.RunRound(ctx, r)
		if err != nil {
			return err
		}
		s.Metrics.ObserveRound(stats.Record(r + 1))
	}
	return s.Finish(ctx)
}

// ClientConfig configures a TCP participant.
type ClientConfig struct {
	// Participant is the id the client's Hello claims and its updates carry.
	Participant int
	Addr        string
	// Env is the client's replica of the run; every broadcast must hold a
	// model of Env.Global's config, and is Env.Global for its round.
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
// final model arrives, which it returns. Every round it makes the broadcast
// model cfg.Env.Global, calls cfg.Method.Round for Env's cohort, runs the
// participant function for its own slot on one persistent Scratch, and
// uploads the whole SlotResult under its Hello id — the slot an in-process
// worker would have computed. A broadcast over the message bound, of another
// model config, or of any round but the next fails the client with an error
// naming the round. Cancelling ctx closes the connection, aborting whatever
// exchange or wait is in flight.
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
	want := env.Global.Cfg
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", cfg.Addr)
	if err != nil {
		return nil, CtxErr(ctx, err)
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	p := newPeer(conn, want, cfg.IOTimeout)
	if err := p.send(Hello{Participant: cfg.Participant}); err != nil {
		return nil, CtxErr(ctx, err)
	}
	var s Scratch
	for next := 0; ; {
		var msg RoundMsg
		if err := p.recv(&msg); err != nil {
			return nil, CtxErr(ctx, fmt.Errorf("fed: client %d: round %d broadcast from %s: %w", cfg.Participant, next, cfg.Addr, err))
		}
		model, err := checkBroadcast(msg, next, want)
		if err != nil {
			return nil, fmt.Errorf("fed: client %d: %w", cfg.Participant, err)
		}
		if msg.Final {
			return model, nil
		}
		env.Global = model
		cohort := env.Cohort(msg.Round)
		participant := cfg.Method.Round(env, msg.Round, cohort)
		s.off = 0
		res := participant(&s, slices.Index(cohort, cfg.Index), cfg.Index)
		res.Update.Participant = cfg.Participant
		if err := p.send(res); err != nil {
			return nil, CtxErr(ctx, err)
		}
		// Drop the round's model before the next broadcast is decoded, so two
		// are never live at once.
		env.Global, next = nil, msg.Round+1
	}
}

// checkBroadcast returns the model of msg, received by a client expecting
// round next of model config want. A broadcast of another round (unless it
// is the final one), a blob that does not decode, or a model of another
// config is an error naming the round.
func checkBroadcast(msg RoundMsg, next int, want moe.Config) (*moe.Model, error) {
	if !msg.Final && msg.Round != next {
		return nil, fmt.Errorf("broadcast of round %d, want round %d", msg.Round, next)
	}
	model, err := moe.DecodeBytes(msg.Model)
	if err != nil {
		return nil, fmt.Errorf("round %d broadcast: %w", msg.Round, err)
	}
	if !reflect.DeepEqual(model.Cfg, want) {
		return nil, fmt.Errorf("round %d broadcast holds model config %+v, want %+v", msg.Round, model.Cfg, want)
	}
	return model, nil
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
