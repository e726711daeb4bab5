package moe

import (
	"testing"

	"repro/internal/tensor"
)

// FuzzDecodeBytes drives the checkpoint decoder, which reads a blob a peer
// supplies (every TCP broadcast carries one). The corpus is a small valid
// model and truncations of it.
//
// Invariant: any input either fails to decode or yields a model that
// ForwardWS runs on a short sequence without panicking.
func FuzzDecodeBytes(f *testing.F) {
	blob, err := MustNew(Uniform("fuzz-ckpt", 8, 2, 3, 2, 3, 2, 4), tensor.Named("fuzz-ckpt")).EncodeBytes()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	for _, n := range []int{0, 1, len(blob) / 4, len(blob) / 2, len(blob) - 1} {
		f.Add(blob[:n])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeBytes(data)
		if err != nil {
			return
		}
		seq := make([]int, min(4, m.Cfg.MaxSeqLen))
		for i := range seq {
			seq[i] = i % m.Cfg.VocabSize
		}
		m.ForwardWS(NewWorkspace(), seq, nil, -1)
	})
}
