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
// path does (gob, through the message bound), then reduced by finishRound on
// a clone of the model. The corpus is seeded with a real slot, with every
// malformed update TestRunRoundRejectsMalformedUpdates rejects, and with a
// NaN phase and negative uplink bytes, so the fuzzer starts from one accepted
// and many refused inputs.
//
// Invariants: neither the decode nor the server core panics; and every slot
// the core's check accepts leaves only finite parameters, traffic totals and
// phase seconds behind.
func FuzzCheckUpdate(f *testing.F) {
	const peer = 1
	global := moe.MustNew(moe.Uniform("fuzz-update", 8, 2, 2, 2, 3, 1, 4), tensor.Named("fuzz-update"))
	cfg := DefaultConfig()
	cfg.Participants = 1

	seed := func(corrupt func(r *SlotResult)) {
		u := ExtractUpdate(global, peer, 3, IdentityTuning(global.Cfg))
		r := SlotResult{Update: u, Bytes: UpdateBytes(u), DownBytes: 9,
			Phases: map[simtime.Phase]float64{simtime.PhaseFineTuning: 2, simtime.PhaseComm: 1}}
		if corrupt != nil {
			corrupt(&r)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(r); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(nil)
	for _, tc := range malformedUpdates {
		seed(func(r *SlotResult) { tc.corrupt(&r.Update) })
	}
	f.Add([]byte{})
	seed(func(r *SlotResult) { r.Phases[simtime.PhaseComm] = math.NaN() })
	seed(func(r *SlotResult) { r.Bytes = -1 })

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
