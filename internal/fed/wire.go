package fed

import (
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
// the body from its encoded global model without building one, and a client
// decodes the body into its replica's model in place (checkBroadcast).
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
func (u Update) MarshalBinary() ([]byte, error) { return appendUpdate(nil, u), nil }

func appendUpdate(b []byte, u Update) []byte {
	keys := slices.SortedFunc(maps.Keys(u.Experts), compareKeys)
	n := 3 * codec.IntSize
	for _, k := range keys {
		n += 2*codec.IntSize + codec.SeqSize(len(u.Experts[k]))
	}
	b = codec.AppendFloat(codec.AppendInt(slices.Grow(b, n), u.Participant), u.Weight)
	b = codec.AppendInt(b, len(keys))
	for _, k := range keys {
		b = codec.AppendFloats(codec.AppendInt(codec.AppendInt(b, k.Layer), k.Expert), u.Experts[k])
	}
	return b
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
// parameter slices are consecutive windows of arena, which must hold as many
// floats as the bytes left in r could encode.
func decodeUpdate(r *codec.Reader, u *Update, arena []float64) {
	u.Participant, u.Weight = r.Int(), r.Float()
	clear(u.Experts)
	n := r.Count("experts", 3*codec.IntSize)
	if n > 0 && u.Experts == nil {
		u.Experts = make(map[ExpertKey][]float64, n)
	}
	var prev ExpertKey
	for i := range n {
		k := ExpertKey{Layer: r.Int(), Expert: r.Int()}
		if i > 0 && compareKeys(prev, k) >= 0 {
			r.Failf("expert %v follows %v", k, prev)
		}
		params := r.Floats(arena, "expert parameters")
		arena = arena[len(params):]
		u.Experts[k], prev = params[:len(params):len(params)], k
	}
}

func compareKeys(a, b ExpertKey) int {
	return cmp.Or(cmp.Compare(a.Layer, b.Layer), cmp.Compare(a.Expert, b.Expert))
}

// MarshalBinary writes res's reply body.
func (res SlotResult) MarshalBinary() ([]byte, error) { return appendSlot(nil, res), nil }

func appendSlot(b []byte, res SlotResult) []byte {
	b = codec.AppendFloat(codec.AppendFloat(appendUpdate(b, res.Update), res.Bytes), res.DownBytes)
	var keys [8]simtime.Phase
	phases := simtime.PhaseOrder(keys[:0], res.Phases, nil)
	b = codec.AppendInt(b, len(phases))
	for _, ph := range phases {
		b = codec.AppendFloat(append(codec.AppendInt(b, len(ph)), ph...), res.Phases[ph])
	}
	return b
}

// decodeSlot reads a reply body into p.slot the way decodeUpdate reads its
// update, into p.arena (grown to the body's size), and clears and refills the
// slot's phase map. Phases out of name order (a duplicate among them) and
// trailing bytes are errors.
func (p *peer) decodeSlot(b []byte) error {
	if n := len(b) / codec.IntSize; len(p.arena) < n {
		p.arena = make([]float64, n)
	}
	r, res := codec.NewReader(b), &p.slot
	decodeUpdate(r, &res.Update, p.arena)
	res.Bytes, res.DownBytes = r.Float(), r.Float()
	clear(res.Phases)
	n := r.Count("phases", 2*codec.IntSize)
	if n > 0 && res.Phases == nil {
		res.Phases = make(map[simtime.Phase]float64, n)
	}
	var prev simtime.Phase
	for i := range n {
		ph := simtime.Phase(r.Bytes(r.Count("phase name", 1)))
		if i > 0 && ph <= prev {
			r.Failf("phase %q follows %q", ph, prev)
		}
		res.Phases[ph], prev = r.Float(), ph
	}
	return r.Err()
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
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf[:0], err
	}
	n := codec.NewReader(buf).Int()
	if n < 0 || n > limit {
		return buf[:0], fmt.Errorf("message of %d bytes exceeds the %d-byte bound", uint64(n), limit)
	}
	buf = slices.Grow(buf[:0], n)[:n]
	_, err := io.ReadFull(r, buf)
	return buf, err
}

// maxMessageBytes bounds one frame body of a deployment of model config cfg.
// The largest legitimate bodies are the broadcast, whose model is
// moe.EncodedSize(cfg) bytes, and a full-model reply, whose update holds only
// the experts' parameters and so is smaller; 64 KiB on top covers the
// broadcast header and a reply's phases.
func maxMessageBytes(cfg moe.Config) int { return moe.EncodedSize(cfg) + 1<<16 }
