// An external test package: the rounders under test import fed.
package fed_test

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/baselines"
	"repro/internal/data"
	"repro/internal/fed"
	"repro/internal/flux"
	"repro/internal/moe"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// modelDigest hashes the bits of every parameter of m.
func modelDigest(m *moe.Model) uint64 {
	h := fnv.New64a()
	var b [8]byte
	add := func(vs []float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	mat := func(ms ...*tensor.Matrix) {
		for _, x := range ms {
			add(x.Data)
		}
	}
	mat(m.Embed, m.Head)
	for _, layer := range m.Layers {
		mat(layer.Wq, layer.Wk, layer.Wv, layer.Gate)
		for _, e := range layer.Experts {
			add(e.W1.Data)
			add(e.B1)
			add(e.W2.Data)
			add(e.B2)
		}
	}
	return h.Sum64()
}

// TestQuantizedGlobalSharedReadOnly pins the ownership rule of the shared
// profiling model: Env.QuantizedGlobal is bit-equal to the per-worker
// LocalClone + Quantize it replaced; a round of each rounder that uses it,
// fanned over eight workers, leaves it exactly as built (so the race leg
// sees eight concurrent readers and would see any writer); and the next call
// rebuilds it from the global model the round changed.
func TestQuantizedGlobalSharedReadOnly(t *testing.T) {
	cfg := fed.DefaultConfig()
	cfg.Participants = 8
	cfg.Workers = 8
	cfg.Batch = 2
	cfg.LocalIters = 1
	cfg.DatasetSize = 80
	cfg.EvalSubset = 4
	cfg.MaxRounds = 2
	cfg.PretrainSteps = 5
	base, err := fed.NewEnv(moe.SimConfigLLaMATrain(), data.GSM8K(), cfg, "quantized-global")
	if err != nil {
		t.Fatal(err)
	}
	perWorker := func(env *fed.Env, bits quant.Bits) uint64 {
		m := new(fed.Scratch).LocalClone(env.Global)
		moe.Quantize(m, bits)
		return modelDigest(m)
	}

	for _, bits := range []quant.Bits{quant.Bits2, quant.Bits4, quant.Bits8} {
		if got, want := modelDigest(base.QuantizedGlobal(bits)), perWorker(base, bits); got != want {
			t.Fatalf("%d bits: QuantizedGlobal digest %x, LocalClone+Quantize %x", bits, got, want)
		}
	}

	rounders := []fed.Rounder{
		flux.New(flux.DefaultOptions(cfg.MaxRounds), cfg.Participants),
		baselines.NewFMES(),
		baselines.NewFMQ(),
	}
	for _, r := range rounders {
		t.Run(r.Name(), func(t *testing.T) {
			env := base.CloneForMethod(r.Name())
			// All three default to 4 bits. The round rebuilds the model into
			// this same buffer from the same global, so qm stays the model
			// the workers share.
			qm := env.QuantizedGlobal(quant.Bits4)
			want := modelDigest(qm)
			global := modelDigest(env.Global)
			if _, err := env.RunRound(r, 0); err != nil {
				t.Fatal(err)
			}
			if modelDigest(env.Global) == global {
				t.Fatal("the round did not change the global model; the checks below are vacuous")
			}
			if got := modelDigest(qm); got != want {
				t.Fatalf("shared quantized model changed during the round: digest %x, was %x", got, want)
			}
			again := env.QuantizedGlobal(quant.Bits4)
			if again != qm {
				t.Fatal("QuantizedGlobal did not reuse its buffer, so qm was not the model the round shared")
			}
			if got, fresh := modelDigest(again), perWorker(env, quant.Bits4); got != fresh || got == want {
				t.Fatalf("after the round: digest %x, LocalClone+Quantize of the new global %x, before the round %x", got, fresh, want)
			}
		})
	}
}

// TestQuantizedGlobalWorkersBitIdentity pins the pooled QuantizedGlobal to
// moe.Quantize on a clone, bit for bit, at one, two and eight workers (more
// workers than units on the LLaMA stand-in's eight), on both stand-ins and
// every bit width — and with the environment's context already canceled,
// when every unit must still be quantized. The race leg sees the workers
// writing disjoint units of one model.
func TestQuantizedGlobalWorkersBitIdentity(t *testing.T) {
	for _, mc := range []moe.Config{moe.SimConfigLLaMATrain(), moe.SimConfigDeepSeekTrain()} {
		global := moe.MustNew(mc, tensor.Named("quantized-workers"))
		for _, bits := range []quant.Bits{quant.Bits2, quant.Bits4, quant.Bits8} {
			want := global.Clone()
			moe.Quantize(want, bits)
			wantDigest := modelDigest(want)
			for _, workers := range []int{1, 2, 8} {
				for _, canceled := range []bool{false, true} {
					env := &fed.Env{Cfg: fed.Config{Workers: workers}, Global: global}
					if canceled {
						ctx, cancel := context.WithCancel(context.Background())
						cancel()
						env.SetContext(ctx)
					}
					if got := modelDigest(env.QuantizedGlobal(bits)); got != wantDigest {
						t.Errorf("%s, %d bits, workers=%d, canceled=%v: digest %x, moe.Quantize on a clone %x",
							mc.Name, bits, workers, canceled, got, wantDigest)
					}
				}
			}
		}
	}
}
