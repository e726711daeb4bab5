package fed

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"repro/internal/moe"
	"repro/internal/simtime"
	"repro/internal/tensor"
)

// FuzzCheckUpdate drives the one wire boundary that feeds the round core:
// arbitrary bytes are decoded into a SlotResult the way RunRound's receive
// path does (gob through the message bound, the update through
// Update.GobDecode), then reduced by finishRound on a clone of the model. The
// corpus is seeded with a real slot, with every malformed update
// TestRunRoundRejectsMalformedUpdates rejects, with a NaN phase and negative
// uplink bytes, and with the real slot's update payload cut short, so the
// fuzzer starts from one accepted and many refused inputs.
//
// Invariants: neither the decode nor the server core panics; and every slot
// the core's check accepts leaves only finite parameters, traffic totals and
// phase seconds behind.
func FuzzCheckUpdate(f *testing.F) {
	const peer = 1
	global := moe.MustNew(moe.Uniform("fuzz-update", 8, 2, 2, 2, 3, 1, 4), tensor.Named("fuzz-update"))
	cfg := DefaultConfig()
	cfg.Participants = 1

	slot := func() SlotResult {
		u := ExtractUpdate(global, peer, 3, IdentityTuning(global.Cfg))
		return SlotResult{Update: u, Bytes: UpdateBytes(u), DownBytes: 9,
			Phases: map[simtime.Phase]float64{simtime.PhaseFineTuning: 2, simtime.PhaseComm: 1}}
	}
	add := func(msg any) {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(msg); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed := func(corrupt func(r *SlotResult)) {
		r := slot()
		corrupt(&r)
		add(r)
	}
	seed(func(*SlotResult) {})
	for _, tc := range malformedUpdates {
		seed(func(r *SlotResult) { tc.corrupt(&r.Update) })
	}
	f.Add([]byte{})
	seed(func(r *SlotResult) { r.Phases[simtime.PhaseComm] = math.NaN() })
	seed(func(r *SlotResult) { r.Bytes = -1 })
	good := slot()
	payload, err := good.Update.GobEncode()
	if err != nil {
		f.Fatal(err)
	}
	for _, n := range []int{0, 1, 8, 16, 23, 24, 40, len(payload) / 2, len(payload) - 1} {
		add(rawSlot{Update: payload[:n], Bytes: good.Bytes, DownBytes: good.DownBytes, Phases: good.Phases})
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var slot SlotResult
		if err := newBoundedDecoder(bytes.NewReader(data), maxMessageBytes(global.Cfg)).Decode(&slot); err != nil {
			return
		}
		env := &Env{Cfg: cfg, Global: global.Clone()}
		o, err := env.finishRound([]int{peer}, []SlotResult{slot})
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

// rawSlot is a SlotResult whose update payload is given bytes, encoded in
// the same gob form.
type rawSlot struct {
	Update           rawPayload
	Bytes, DownBytes float64
	Phases           map[simtime.Phase]float64
}

type rawPayload []byte

func (p rawPayload) GobEncode() ([]byte, error) { return p, nil }

// FuzzRoundMsg drives the client's receive path: arbitrary bytes are read
// the way RunClientContext reads a broadcast (gob through the message bound
// into a RoundMsg), then checked by checkBroadcast for round 0 of the
// client's model config. The corpus is seeded with a valid broadcast, the
// final one, one of a later round, one of another config, and the valid
// broadcast with its model blob cut short or its message cut short.
//
// Invariants: nothing panics; every broadcast checkBroadcast accepts holds a
// model of the client's config whose encoding is exactly the blob received
// (the codec has one encoding per model), and ForwardWS runs on it.
func FuzzRoundMsg(f *testing.F) {
	want := moe.Uniform("fuzz-round", 8, 2, 3, 2, 3, 2, 4)
	blob, err := moe.MustNew(want, tensor.Named("fuzz-round")).EncodeBytes()
	if err != nil {
		f.Fatal(err)
	}
	other, err := moe.MustNew(moe.Uniform("fuzz-other", 8, 2, 3, 1, 3, 2, 4), tensor.Named("fuzz-round")).EncodeBytes()
	if err != nil {
		f.Fatal(err)
	}
	add := func(msg RoundMsg) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(msg); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		return buf.Bytes()
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
		var msg RoundMsg
		if err := newBoundedDecoder(bytes.NewReader(data), maxMessageBytes(want)).Decode(&msg); err != nil {
			return
		}
		model, err := checkBroadcast(msg, 0, want)
		if err != nil {
			return
		}
		again, err := model.EncodeBytes()
		if err != nil || !bytes.Equal(again, msg.Model) {
			t.Fatalf("accepted broadcast re-encodes differently (err %v)", err)
		}
		model.ForwardWS(moe.NewWorkspace(), []int{0, 1, 2}, nil, -1)
	})
}
