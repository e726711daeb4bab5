package fed

import (
	"bufio"
	"cmp"
	"encoding"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"slices"

	"repro/internal/codec"
	"repro/internal/moe"
	"repro/internal/simtime"
)

// The deployment's wire format. Every message is one frame: the body's
// length as a codec integer, then the body in package codec's encoding.
//
//	Hello      the wire tag, the protocol version byte, the participant id
//	broadcast  the round, the final flag (0 or 1), then the global model as
//	           moe.AppendEncoded writes it
//	reply      the SlotResult: its update (participant, weight, expert count,
//	           then per expert in (layer, expert) order its key and
//	           parameters), uplink and downlink bytes, then its phases in
//	           name order, each a name and its seconds
//
// A reader bounds a frame's length before it reads the body: Accept by a
// Hello's exact size, every peer after that by maxMessageBytes. A peer
// speaking another protocol version, or the gob envelopes that came before
// frames, is dropped at its Hello.
//
// No frame is held whole on either end. A broadcast and a reply are each one
// vectored write (codec.Writer with Views) whose floats are views of the
// global model's tensors and of the update's parameters. A client decodes a
// broadcast from the connection into its replica as it arrives
// (decodeBroadcast), and the server reads a reply into the memory of the
// arena its parameters are then windows of (readSlot). Every float of a
// reply body starts at a multiple of 8 bytes, which is what lets the arena
// be both the bytes and the floats.

// The Hello's wire tag and protocol version, and the size of its body.
const (
	wireTag     = "FLUXWIRE"
	wireVersion = 1
	helloSize   = len(wireTag) + 1 + codec.IntSize
)

// Hello is the first message a participant sends after connecting.
type Hello struct {
	Participant int
}

// MarshalBinary writes h's frame body: the wire tag, the protocol version,
// then the participant id.
func (h Hello) MarshalBinary() ([]byte, error) {
	return codec.AppendInt(append([]byte(wireTag), wireVersion), h.Participant), nil
}

// UnmarshalBinary reads a Hello body. One that does not start with the wire
// tag and this protocol version is an error.
func (h *Hello) UnmarshalBinary(b []byte) error {
	if len(b) != helloSize || string(b[:len(wireTag)]) != wireTag || b[len(wireTag)] != wireVersion {
		return errors.New("not a Hello of this protocol version")
	}
	h.Participant = codec.NewReader(b[len(wireTag)+1:]).Int()
	return nil
}

// RoundMsg is the server's per-round broadcast as a value. The server writes
// the body from its global model without building one, and a client decodes
// the body into its replica's model in place (decodeBroadcast).
type RoundMsg struct {
	Round int
	Final bool   // no more rounds; Model holds the final global model
	Model []byte // the global model as moe.AppendEncoded writes it
}

// broadcastHeader is the size of what precedes the model in a broadcast: the
// round and the final flag.
const broadcastHeader = 2 * codec.IntSize

func appendBroadcastHeader(b []byte, round int, final bool) []byte {
	flag := 0
	if final {
		flag = 1
	}
	return codec.AppendInt(codec.AppendInt(b, round), flag)
}

// splitBroadcast splits a broadcast body into its round, its final flag and
// the model's encoding, which aliases b.
func splitBroadcast(b []byte) (round int, final bool, model []byte, err error) {
	r := codec.NewReader(b[:min(len(b), broadcastHeader)])
	round, flag := r.Int(), r.Int()
	if err := r.Err(); err != nil {
		return 0, false, nil, fmt.Errorf("broadcast: %w", err)
	}
	if flag != 0 && flag != 1 {
		return 0, false, nil, fmt.Errorf("broadcast of round %d has final flag %d", round, flag)
	}
	return round, flag == 1, b[broadcastHeader:], nil
}

// MarshalBinary writes m's frame body.
func (m RoundMsg) MarshalBinary() ([]byte, error) {
	b := appendBroadcastHeader(make([]byte, 0, broadcastHeader+len(m.Model)), m.Round, m.Final)
	return append(b, m.Model...), nil
}

// UnmarshalBinary reads a broadcast body, copying the model's bytes.
func (m *RoundMsg) UnmarshalBinary(b []byte) error {
	round, final, model, err := splitBroadcast(b)
	if err != nil {
		return err
	}
	*m = RoundMsg{Round: round, Final: final, Model: slices.Clone(model)}
	return nil
}

// UpdateMsg is the Update a participant's reply carries. The reply itself is
// the participant function's whole SlotResult: the update, its modeled
// traffic and its per-phase simulated seconds.
type UpdateMsg = Update

// The messages a peer exchanges are also gob values, whose bytes are their
// frame bodies: gob encodes a BinaryMarshaler as the byte string it returns.
var (
	_ encoding.BinaryMarshaler   = RoundMsg{}
	_ encoding.BinaryUnmarshaler = (*RoundMsg)(nil)
	_ encoding.BinaryMarshaler   = Update{}
	_ encoding.BinaryUnmarshaler = (*Update)(nil)
)

// MarshalBinary writes u in package codec's encoding: the participant, the
// weight, the expert count, then per expert in (layer, expert) order its key
// and parameters. The sorted order makes the bytes a function of u's
// contents, which map order is not.
func (u Update) MarshalBinary() ([]byte, error) {
	n := 3 * codec.IntSize
	//fluxvet:unordered an integer sum
	for _, params := range u.Experts {
		n += 2*codec.IntSize + codec.SeqSize(len(params))
	}
	w := codec.Writer{Buf: make([]byte, 0, n)}
	encodeUpdate(&w, u, nil)
	return w.Buf, nil
}

// encodeUpdate writes u to w, sorting its keys into keys' storage, which it
// returns for the next call.
func encodeUpdate(w *codec.Writer, u Update, keys []ExpertKey) []ExpertKey {
	keys = slices.AppendSeq(keys[:0], maps.Keys(u.Experts))
	slices.SortFunc(keys, compareKeys)
	w.Int(u.Participant)
	w.Float(u.Weight)
	w.Int(len(keys))
	for _, k := range keys {
		w.Int(k.Layer)
		w.Int(k.Expert)
		w.Floats(u.Experts[k])
	}
	return keys
}

// UnmarshalBinary reads an update written by MarshalBinary. Every count is
// checked against the bytes left before it is allocated; keys out of order (a
// duplicate among them) and trailing bytes are errors.
func (u *Update) UnmarshalBinary(b []byte) error {
	r := codec.NewReader(b)
	var dec Update
	decodeUpdate(r, &dec, make([]float64, len(b)/codec.IntSize))
	if err := r.Err(); err != nil {
		return fmt.Errorf("fed: decode update: %w", err)
	}
	*u = dec
	return nil
}

// decodeUpdate reads an update into u, clearing and refilling u's map. The
// parameter slices are windows of arena, which holds a float for every 8
// bytes r has left, in step with r: each expert's parameters are the window
// at their own offset in the body. So a body read into arena's memory
// (readSlot) decodes where it lies, and nothing is copied.
func decodeUpdate(r *codec.Reader, u *Update, arena []float64) {
	u.Participant, u.Weight = r.Int(), r.Float()
	clear(u.Experts)
	n := r.Count("experts", 3*codec.IntSize)
	if n > 0 && u.Experts == nil {
		u.Experts = make(map[ExpertKey][]float64, n)
	}
	at := 3 // arena's float at r's next byte: the participant, weight and count are behind it
	var prev ExpertKey
	for i := range n {
		k := ExpertKey{Layer: r.Int(), Expert: r.Int()}
		if i > 0 && compareKeys(prev, k) >= 0 {
			r.Failf("expert %v follows %v", k, prev)
		}
		at += 3 // the key and the parameters' count
		params := r.Floats(arena[min(at, len(arena)):], "expert parameters")
		at += len(params)
		u.Experts[k], prev = params[:len(params):len(params)], k
	}
}

func compareKeys(a, b ExpertKey) int {
	return cmp.Or(cmp.Compare(a.Layer, b.Layer), cmp.Compare(a.Expert, b.Expert))
}

// MarshalBinary writes res's reply body.
func (res SlotResult) MarshalBinary() ([]byte, error) {
	var w codec.Writer
	encodeSlot(&w, res, nil)
	return w.Buf, nil
}

// encodeSlot writes res's reply body to w the way encodeUpdate writes its
// update, and returns keys' storage.
func encodeSlot(w *codec.Writer, res SlotResult, keys []ExpertKey) []ExpertKey {
	keys = encodeUpdate(w, res.Update, keys)
	w.Float(res.Bytes)
	w.Float(res.DownBytes)
	var order [8]simtime.Phase
	phases := simtime.PhaseOrder(order[:0], res.Phases, nil)
	w.Int(len(phases))
	for _, ph := range phases {
		w.Int(len(ph))
		w.Raw(string(ph))
		w.Float(res.Phases[ph])
	}
	return keys
}

// readSlot reads one reply frame from src into p.arena's memory, grown to the
// announced length, and decodes it there into p.slot (decodeSlot): the
// update's parameters are windows of the arena, valid until the next read.
func (p *peer) readSlot(src io.Reader) error {
	n, err := readLength(src, p.word[:], p.limit)
	if err != nil {
		return err
	}
	if words := (n + codec.IntSize - 1) / codec.IntSize; len(p.arena) < words {
		p.arena = make([]float64, words)
	}
	body := codec.FloatBytes(p.arena)[:n]
	if _, err := io.ReadFull(src, body); err != nil {
		return err
	}
	return p.decodeSlot(body)
}

// decodeSlot reads a reply body, which readSlot has read into p.arena's
// memory, into p.slot the way decodeUpdate reads its update, and clears and
// refills the slot's phase map. Phases out of name order (a duplicate among
// them) and trailing bytes are errors.
func (p *peer) decodeSlot(b []byte) error {
	r, res := codec.NewReader(b), &p.slot
	decodeUpdate(r, &res.Update, p.arena)
	res.Bytes, res.DownBytes = r.Float(), r.Float()
	clear(res.Phases)
	n := r.Count("phases", 2*codec.IntSize)
	if res.Phases == nil {
		res.Phases = make(map[simtime.Phase]float64, n)
	}
	var prev simtime.Phase
	for i := range n {
		ph := phaseNamed(r.Bytes(r.Count("phase name", 1)))
		if i > 0 && ph <= prev {
			r.Failf("phase %q follows %q", ph, prev)
		}
		res.Phases[ph], prev = r.Float(), ph
	}
	return r.Err()
}

// canonicalPhases are the phases a reply names in practice.
var canonicalPhases = simtime.CanonicalPhases()

// phaseNamed is the phase name b holds: a canonical phase's own string, so
// a reply of canonical phases decodes without allocating, or a copy of b.
func phaseNamed(b []byte) simtime.Phase {
	for _, ph := range canonicalPhases {
		if string(ph) == string(b) {
			return ph
		}
	}
	return simtime.Phase(b)
}

// broadcastBuffer is the size of a client's read-ahead buffer: a broadcast
// is decoded from the connection through it, never held whole.
const broadcastBuffer = 64 << 10

// decodeBroadcast decodes the n-byte body of a broadcast from src into
// model, the client's replica of the global model, through p's read-ahead
// buffer, which never reads past the body. It returns the broadcast's round
// and final flag. A broadcast of another round than next (unless it is the
// final one), a model that does not decode, or one of another config than
// model's is an error naming the round, after which model may be partly
// overwritten.
func (p *peer) decodeBroadcast(src io.Reader, n, next int, model *moe.Model) (round int, final bool, err error) {
	p.body = io.LimitedReader{R: src, N: int64(n)}
	if p.stream == nil {
		p.stream = bufio.NewReaderSize(&p.body, broadcastBuffer)
	} else {
		p.stream.Reset(&p.body)
	}
	r := codec.NewStreamReader(p.stream, n)
	round, final, _, err = splitBroadcast(r.Bytes(broadcastHeader))
	if err != nil {
		return 0, false, err
	}
	if !final && round != next {
		return 0, false, fmt.Errorf("broadcast of round %d, want round %d", round, next)
	}
	if _, err := moe.DecodeInto(model, r); err != nil {
		return 0, false, fmt.Errorf("round %d broadcast: %w", round, err)
	}
	return round, final, nil
}

// beginFrame empties w for one frame of the parts of a vectored write: its
// first word stands for the body's length, which frameParts sets.
func beginFrame(w *codec.Writer) {
	w.Reset()
	w.Views = true
	w.Int(0)
}

// frameParts returns the frame begun by beginFrame, its length set.
func frameParts(w *codec.Writer) net.Buffers {
	parts := w.Parts()
	n := -codec.IntSize
	for _, b := range parts {
		n += len(b)
	}
	codec.AppendInt(parts[0][:0], n)
	return parts
}

// WriteFrame writes one frame to w: the parts' total length, then the parts,
// in one vectored write where w is a TCP connection.
func WriteFrame(w io.Writer, parts ...[]byte) error {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	bufs := append(net.Buffers{codec.AppendInt(nil, n)}, parts...)
	_, err := bufs.WriteTo(w)
	return err
}

// ReadFrame reads one frame from r and returns its body, read into buf's
// storage when buf has room for it and into a new buffer otherwise. A frame
// announcing more than limit bytes is an error before any of its body is read
// or allocated.
func ReadFrame(r io.Reader, buf []byte, limit int) ([]byte, error) {
	buf = slices.Grow(buf[:0], codec.IntSize)[:codec.IntSize]
	n, err := readLength(r, buf, limit)
	if err != nil {
		return buf[:0], err
	}
	buf = slices.Grow(buf[:0], n)[:n]
	_, err = io.ReadFull(r, buf)
	return buf, err
}

// readLength reads a frame's length from r into word, which holds one
// integer, and refuses one over limit.
func readLength(r io.Reader, word []byte, limit int) (int, error) {
	if _, err := io.ReadFull(r, word); err != nil {
		return 0, err
	}
	n := codec.NewReader(word).Int()
	if n < 0 || n > limit {
		return 0, fmt.Errorf("message of %d bytes exceeds the %d-byte bound", uint64(n), limit)
	}
	return n, nil
}

// maxMessageBytes bounds one frame body of a deployment of model config cfg.
// The largest legitimate bodies are the broadcast, whose model is
// moe.EncodedSize(cfg) bytes, and a full-model reply, whose update holds only
// the experts' parameters and so is smaller; 64 KiB on top covers the
// broadcast header and a reply's phases.
func maxMessageBytes(cfg moe.Config) int { return moe.EncodedSize(cfg) + 1<<16 }
