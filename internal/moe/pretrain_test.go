package moe

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// pretrainSampler draws sequences of 2…16 tokens, except that every fourth
// call yields a single token: a sequence with no scored position, whose
// backward stages do nothing but must still hand each stage on to the next
// sequence. Each call returns a fresh slice, as PretrainContext requires.
func pretrainSampler(vocab int) func(*tensor.RNG) []int {
	calls := 0
	return func(g *tensor.RNG) []int {
		calls++
		if calls%4 == 3 {
			return wsSeq(g, vocab, 1)
		}
		return wsSeq(g, vocab, 2+g.Intn(15))
	}
}

// serialPretrain is the loop PretrainContext's wavefront replaces: each
// step's sequences drawn, run forward and backward, and accumulated one
// after another on one workspace, then one SGD step.
func serialPretrain(m *Model, sampler func(*tensor.RNG) []int, steps, batch int, lr float64, g *tensor.RNG) []float64 {
	grads := NewGrads(m, true)
	ws := NewWorkspace()
	var losses []float64
	for range steps {
		var loss float64
		for range batch {
			loss += m.ForwardBackwardWS(ws, sampler(g), nil, grads, nil, -1)
		}
		m.ApplySGD(grads, lr/float64(batch))
		losses = append(losses, loss/float64(batch))
	}
	return losses
}

// TestPretrainWidthBitIdentity pins PretrainContext's wavefront bit for bit
// to the serial loop it replaces: at widths 1, 2, 3 and 8 the trained
// model's encoding and every step's loss equal serialPretrain's. The batch
// of 5 is divided by none of the widths above 1 (8 is clamped to it), and
// the sampler's 1-token sequences land at the start, the middle and the end
// of a batch. Under -race this is also the audit that no two workers ever
// touch the same gradient block at once.
func TestPretrainWidthBitIdentity(t *testing.T) {
	const steps, batch, lr = 4, 5, 0.5
	for _, cfg := range []Config{tinyConfig(), SimConfigLLaMATrain()} {
		seed := "pretrain-width/" + cfg.Name
		oracle := MustNew(cfg, tensor.Named(seed))
		wantLoss := serialPretrain(oracle, pretrainSampler(cfg.VocabSize), steps, batch, lr, tensor.NewRNG(37))
		wantBytes, err := oracle.EncodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		for _, width := range []int{1, 2, 3, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", cfg.Name, width), func(t *testing.T) {
				m := MustNew(cfg, tensor.Named(seed))
				losses, err := PretrainContext(context.Background(), m, pretrainSampler(cfg.VocabSize),
					steps, batch, lr, tensor.NewRNG(37), width)
				if err != nil {
					t.Fatal(err)
				}
				if len(losses) != len(wantLoss) {
					t.Fatalf("%d losses, want %d", len(losses), len(wantLoss))
				}
				for s, l := range losses {
					if math.Float64bits(l) != math.Float64bits(wantLoss[s]) {
						t.Fatalf("step %d loss %v, serial loop %v", s, l, wantLoss[s])
					}
				}
				enc, err := m.EncodeBytes()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(enc, wantBytes) {
					t.Fatal("trained model differs from the serial loop's")
				}
			})
		}
	}
}
