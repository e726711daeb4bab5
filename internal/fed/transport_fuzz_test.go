package fed

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"repro/internal/moe"
	"repro/internal/tensor"
)

// FuzzCheckUpdate drives the one wire boundary that feeds the round core:
// arbitrary bytes are gob-decoded into an UpdateMsg the way RunRound's
// receive path does, then checked. The corpus is seeded with a real
// ExtractUpdate and with every malformed case TestRunRoundRejectsMalformedUpdates
// rejects, so the fuzzer starts from one accepted and many refused inputs.
//
// Invariants: neither the decode nor checkUpdate panics; and every message
// checkUpdate accepts can be reduced by FinishRound (on a clone of the model)
// without a panic, leaving only finite parameters behind.
func FuzzCheckUpdate(f *testing.F) {
	const peer = 1
	global := moe.MustNew(moe.Uniform("fuzz-update", 8, 2, 2, 2, 3, 1, 4), tensor.Named("fuzz-update"))
	cfg := DefaultConfig()
	cfg.Participants = 1

	seed := func(corrupt func(u *UpdateMsg)) {
		u := ExtractUpdate(global, peer, 3, IdentityTuning(global.Cfg))
		msg := UpdateMsg{Participant: u.Participant, Weight: u.Weight, Experts: u.Experts}
		if corrupt != nil {
			corrupt(&msg)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(msg); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(nil)
	for _, tc := range malformedUpdates {
		seed(tc.corrupt)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var msg UpdateMsg
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&msg); err != nil {
			return
		}
		if err := checkUpdate(global, peer, msg); err != nil {
			return
		}
		env := &Env{Cfg: cfg, Global: global.Clone()}
		u := Update{Participant: msg.Participant, Weight: msg.Weight, Experts: msg.Experts}
		env.FinishRound([]int{peer}, []SlotResult{{Update: u, Bytes: UpdateBytes(u)}})
		for l, layer := range env.Global.Layers {
			for e, expert := range layer.Experts {
				for _, v := range expert.FlattenTo(nil) {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("accepted update left a non-finite parameter in layer %d expert %d", l, e)
					}
				}
			}
		}
	})
}
