package fed

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/codec"
	"repro/internal/moe"
	"repro/internal/simtime"
	"repro/internal/tensor"
)

// FuzzCheckUpdate drives the one wire boundary that feeds the round core:
// arbitrary bytes are read the way RunRound's receive path reads a reply (a
// frame through the message bound, read into the memory of the arena of a
// peer whose slot already holds a real reply and decoded there by readSlot),
// then reduced by finishRound on a clone of the model. The corpus is seeded
// with a real slot, with every malformed update
// TestRunRoundRejectsMalformedUpdates rejects, with a NaN phase and negative
// uplink bytes, with the real slot's update payload cut short, with a slot of
// no experts and no phases, with a slot larger than the real one (the arena
// regrows between two decodes), and with the real frame cut short of the
// length it announces, so the fuzzer starts from accepted and refused inputs
// and from a reply smaller and larger than the last.
//
// Invariants: neither the decode nor the server core panics; every reply the
// decoder accepts re-encodes to the bytes received, so nothing of the
// previous reply survives in the reused slot or arena; and every slot the
// core's check accepts leaves only finite parameters, traffic totals and
// phase seconds behind.
func FuzzCheckUpdate(f *testing.F) {
	const peerID = 1
	global := moe.MustNew(moe.Uniform("fuzz-update", 8, 2, 2, 2, 3, 1, 4), tensor.Named("fuzz-update"))
	cfg := DefaultConfig()
	cfg.Participants = 1

	slot := func() SlotResult {
		u := ExtractUpdate(global, peerID, 3, IdentityTuning(global.Cfg))
		return SlotResult{Update: u, Bytes: UpdateBytes(u), DownBytes: 9,
			Phases: map[simtime.Phase]float64{simtime.PhaseFineTuning: 2, simtime.PhaseComm: 1}}
	}
	seed := func(corrupt func(r *SlotResult)) {
		r := slot()
		corrupt(&r)
		f.Add(frame(f, r))
	}
	seed(func(*SlotResult) {})
	for _, tc := range malformedUpdates {
		seed(func(r *SlotResult) { tc.corrupt(&r.Update) })
	}
	f.Add([]byte{})
	seed(func(r *SlotResult) { r.Phases[simtime.PhaseComm] = math.NaN() })
	seed(func(r *SlotResult) { r.Bytes = -1 })
	good := slot()
	body, _ := good.MarshalBinary()
	payload, _ := good.Update.MarshalBinary()
	for _, n := range []int{0, 1, 8, 16, 23, 24, 40, len(payload) / 2, len(payload) - 1} {
		f.Add(frame(f, rawBody(append(payload[:n:n], body[len(payload):]...))))
	}
	seed(func(r *SlotResult) { r.Update.Experts, r.Phases = nil, nil })
	seed(func(r *SlotResult) {
		k := ExpertKey{Layer: 1, Expert: 2}
		r.Update.Experts[k] = append(r.Update.Experts[k], make([]float64, 64)...)
	})
	warm := frame(f, good)
	f.Add(warm[:len(warm)-1])

	f.Fuzz(func(t *testing.T, data []byte) {
		p := &peer{limit: maxMessageBytes(global.Cfg)}
		for _, in := range [][]byte{warm, data} {
			if err := p.readSlot(bytes.NewReader(in)); err != nil {
				return
			}
			body := in[codec.IntSize:][:codec.NewReader(in[:codec.IntSize]).Int()]
			if again, _ := p.slot.MarshalBinary(); !bytes.Equal(again, body) {
				t.Fatalf("accepted reply re-encodes differently")
			}
		}
		env := &Env{Cfg: cfg, Global: global.CloneInto(nil)}
		o, err := env.finishRound([]int{peerID}, []SlotResult{p.slot})
		if err != nil {
			return
		}
		for l, layer := range env.Global.Layers {
			for e, expert := range layer.Experts {
				for _, v := range expert.FlattenTo(nil) {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("accepted slot left a non-finite parameter in layer %d expert %d", l, e)
					}
				}
			}
		}
		for _, v := range []float64{o.UplinkBytes, o.DownlinkBytes, sortedPhaseSum(o.Phases)} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted slot left non-finite traffic or phases: %+v", o)
			}
		}
	})
}

// rawBody is a frame body given as bytes.
type rawBody []byte

func (b rawBody) MarshalBinary() ([]byte, error) { return b, nil }

// FuzzRoundMsg drives the client's receive path: arbitrary bytes are read
// the way RunClientContext reads a broadcast (a frame's length through the
// message bound), then decoded by decodeBroadcast for round 0 from the
// stream, in place into a replica that holds a model of the client's config.
// The corpus is seeded with a valid broadcast, the final one, one of a later
// round, one of another config, and the valid broadcast with its model cut
// short or its frame cut short of the length it announces.
//
// Invariants: nothing panics; every broadcast decodeBroadcast accepts leaves
// the replica a model whose encoding is exactly the bytes received (the codec
// has one encoding per model), and ForwardWS runs on it; every broadcast it
// refuses comes back as an error.
func FuzzRoundMsg(f *testing.F) {
	want := moe.Uniform("fuzz-round", 8, 2, 3, 2, 3, 2, 4)
	warm := moe.MustNew(want, tensor.Named("fuzz-round"))
	blob, err := warm.EncodeBytes()
	if err != nil {
		f.Fatal(err)
	}
	other, err := moe.MustNew(moe.Uniform("fuzz-other", 8, 2, 3, 1, 3, 2, 4), tensor.Named("fuzz-round")).EncodeBytes()
	if err != nil {
		f.Fatal(err)
	}
	add := func(msg RoundMsg) []byte {
		b := frame(f, msg)
		f.Add(b)
		return b
	}
	valid := add(RoundMsg{Model: blob})
	add(RoundMsg{Round: 4, Final: true, Model: blob})
	add(RoundMsg{Round: 1, Model: blob})
	add(RoundMsg{Model: other})
	for _, n := range []int{0, 8, len(blob) / 2, len(blob) - 1} {
		add(RoundMsg{Model: blob[:n]})
	}
	for _, n := range []int{0, 1, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:n])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p := &peer{limit: maxMessageBytes(want)}
		src := bytes.NewReader(data)
		n, err := readLength(src, p.word[:], p.limit)
		if err != nil {
			return
		}
		replica := warm.CloneInto(nil)
		if _, _, err := p.decodeBroadcast(src, n, 0, replica); err != nil {
			return
		}
		again, err := replica.EncodeBytes()
		if err != nil || !bytes.Equal(again, data[codec.IntSize+broadcastHeader:codec.IntSize+n]) {
			t.Fatalf("accepted broadcast re-encodes differently (err %v)", err)
		}
		replica.ForwardWS(moe.NewWorkspace(), []int{0, 1, 2}, nil, -1)
	})
}
