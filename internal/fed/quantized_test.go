// An external test package: the rounders under test import fed.
package fed_test

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/baselines"
	"repro/internal/data"
	"repro/internal/fed"
	"repro/internal/fleet"
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
			want := global.CloneInto(nil)
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

// freshQuantized is the digest of the profiling model built from scratch: a
// fresh CloneInto of global, quantized whole by moe.Quantize.
func freshQuantized(global *moe.Model, bits quant.Bits) uint64 {
	m := global.CloneInto(nil)
	moe.Quantize(m, bits)
	return modelDigest(m)
}

// quantChecked wraps a Rounder and, in each Round after the wrapped one's,
// holds the environment's quantized model (which the wrapped Round brought
// up to date, so asking for it again re-quantizes nothing) to freshQuantized
// of the global model the round starts from.
type quantChecked struct {
	fed.Rounder
	t      *testing.T
	bits   quant.Bits
	checks *atomic.Int64
}

func (c quantChecked) Round(env *fed.Env, r int, cohort []int) fed.Participant {
	p := c.Rounder.Round(env, r, cohort)
	if got, want := modelDigest(env.QuantizedGlobal(c.bits)), freshQuantized(env.Global, c.bits); got != want {
		c.t.Errorf("round %d: quantized global digest %x, fresh CloneInto+Quantize %x", r, got, want)
	}
	c.checks.Add(1)
	return p
}

// TestQuantizedGlobalIncremental holds the incrementally updated quantized
// model to one built from scratch before every round of a Flux run — the
// synchronous barrier, the async core's flushes, a sampled longtail fleet
// with a drop deadline, and a TCP deployment whose clients decode every
// broadcast into their replica — at two workers. Between the synchronous
// rounds it also switches the bit width and swaps Env.Global for another
// model and back, each of which must rebuild the model in full.
func TestQuantizedGlobalIncremental(t *testing.T) {
	cfg := fed.DefaultConfig()
	cfg.Participants = 6
	cfg.Workers = 2
	cfg.Batch = 2
	cfg.LocalIters = 1
	cfg.DatasetSize = 72
	cfg.EvalSubset = 2
	cfg.MaxRounds = 3
	cfg.PretrainSteps = 5
	newBase := func(t *testing.T, cfg fed.Config) *fed.Env {
		base, err := fed.NewEnv(moe.SimConfigLLaMATrain(), data.GSM8K(), cfg, "quantized-incremental")
		if err != nil {
			t.Fatal(err)
		}
		return base
	}
	rounder := func(t *testing.T, checks *atomic.Int64) quantChecked {
		return quantChecked{flux.New(flux.DefaultOptions(cfg.MaxRounds), cfg.Participants), t, quant.Bits4, checks}
	}
	inProcess := func(t *testing.T, cfg fed.Config, between func(env *fed.Env)) {
		env := newBase(t, cfg).CloneForMethod("flux")
		var checks atomic.Int64
		r := rounder(t, &checks)
		before := modelDigest(env.Global)
		for round := range cfg.MaxRounds {
			if _, err := env.RunRound(r, round); err != nil {
				t.Fatal(err)
			}
			if between != nil {
				between(env)
			}
		}
		if checks.Load() != int64(cfg.MaxRounds) || modelDigest(env.Global) == before {
			t.Fatalf("vacuous: %d checks, global moved %v", checks.Load(), modelDigest(env.Global) != before)
		}
	}

	t.Run("sync", func(t *testing.T) {
		other := moe.MustNew(moe.SimConfigLLaMATrain(), tensor.Named("quantized-swap"))
		inProcess(t, cfg, func(env *fed.Env) {
			for _, bits := range []quant.Bits{quant.Bits2, quant.Bits8, quant.Bits4} {
				if got, want := modelDigest(env.QuantizedGlobal(bits)), freshQuantized(env.Global, bits); got != want {
					t.Fatalf("switched to %d bits: digest %x, fresh %x", bits, got, want)
				}
			}
			global := env.Global
			for _, m := range []*moe.Model{other, global} {
				env.Global = m
				if got, want := modelDigest(env.QuantizedGlobal(quant.Bits4)), freshQuantized(m, quant.Bits4); got != want {
					t.Fatalf("swapped Env.Global: digest %x, fresh %x", got, want)
				}
			}
		})
	})
	t.Run("async", func(t *testing.T) {
		c := cfg
		c.Agg = fed.AggSpec{Mode: fed.ModeAsync, BufferK: 2, StalenessAlpha: 0.5}
		inProcess(t, c, nil)
	})
	t.Run("fleet", func(t *testing.T) {
		c := cfg
		c.Fleet = fleet.Spec{
			Distribution: "longtail",
			Selector:     fleet.SelectorSpec{Policy: "uniform", K: 4},
			Deadline:     8000,
			Drop:         true,
			Seed:         "quantized",
		}
		inProcess(t, c, nil)
	})
	t.Run("tcp", func(t *testing.T) {
		base := newBase(t, cfg)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		// The replicas copy the global model before the server starts
		// writing it.
		envs := make([]*fed.Env, cfg.Participants)
		for i := range envs {
			envs[i] = base.CloneForMethod("flux")
		}
		srv := &fed.Server{Env: base.CloneForMethod("flux")}
		serveErr := make(chan error, 1)
		go func() { serveErr <- srv.ServeContext(context.Background(), ln) }()
		var checks atomic.Int64
		var wg sync.WaitGroup
		errs := make([]error, cfg.Participants)
		for i := range envs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = fed.RunClientContext(context.Background(), fed.ClientConfig{
					Participant: i, Addr: ln.Addr().String(), Env: envs[i], Method: rounder(t, &checks), Index: i,
				})
			}()
		}
		wg.Wait()
		if err := <-serveErr; err != nil {
			t.Fatal(err)
		}
		for i, err := range errs {
			if err != nil {
				t.Fatalf("client %d: %v", i, err)
			}
		}
		if want := int64(cfg.Participants * cfg.MaxRounds); checks.Load() != want {
			t.Fatalf("%d checks, want %d", checks.Load(), want)
		}
	})
}
