package flux

// Benchmark harness: one benchmark per table/figure of the paper, each
// regenerating the experiment at quick scale and reporting its table, plus
// micro-benchmarks for the hot substrate operations. Run with
//
//	go test -bench=. -benchmem
//
// Use cmd/fluxsim (without -quick) for full-scale regeneration.

import (
	"fmt"
	"io"
	"sync/atomic"
	"testing"

	"repro/internal/codec"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/fed"
	"repro/internal/fleet"
	"repro/internal/flux/profile"
	"repro/internal/methods"
	"repro/internal/moe"
	"repro/internal/quant"
	"repro/internal/simtime"
	"repro/internal/tensor"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	opts := experiments.Options{Quick: true}
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Run(id, opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			tab.Fprint(testLogWriter{b})
		}
	}
}

type testLogWriter struct{ b *testing.B }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.b.Log(string(p))
	return len(p), nil
}

var _ io.Writer = testLogWriter{}

// One benchmark per paper table/figure.

func BenchmarkTable1Models(b *testing.B)        { benchExperiment(b, "table1") }
func BenchmarkFigure1TuningCost(b *testing.B)   { benchExperiment(b, "figure1") }
func BenchmarkFigure2Activation(b *testing.B)   { benchExperiment(b, "figure2") }
func BenchmarkFigure3NonTuning(b *testing.B)    { benchExperiment(b, "figure3") }
func BenchmarkFigure5QuantError(b *testing.B)   { benchExperiment(b, "figure5") }
func BenchmarkFigure6Drift(b *testing.B)        { benchExperiment(b, "figure6") }
func BenchmarkFigure8LayerError(b *testing.B)   { benchExperiment(b, "figure8") }
func BenchmarkFigure9Significance(b *testing.B) { benchExperiment(b, "figure9") }
func BenchmarkFigure10Convergence(b *testing.B) { benchExperiment(b, "figure10") }
func BenchmarkFigure11Convergence(b *testing.B) { benchExperiment(b, "figure11") }
func BenchmarkTable2Final(b *testing.B)         { benchExperiment(b, "table2") }
func BenchmarkFigure12Scalability(b *testing.B) { benchExperiment(b, "figure12") }
func BenchmarkFigure13Scalability(b *testing.B) { benchExperiment(b, "figure13") }
func BenchmarkFigure14Stale(b *testing.B)       { benchExperiment(b, "figure14") }
func BenchmarkFigure15LayerSize(b *testing.B)   { benchExperiment(b, "figure15") }
func BenchmarkFigure16Clustering(b *testing.B)  { benchExperiment(b, "figure16") }
func BenchmarkFigure17Merging(b *testing.B)     { benchExperiment(b, "figure17") }
func BenchmarkFigure18GradEst(b *testing.B)     { benchExperiment(b, "figure18") }
func BenchmarkFigure19Epsilon(b *testing.B)     { benchExperiment(b, "figure19") }
func BenchmarkFigure20Overhead(b *testing.B)    { benchExperiment(b, "figure20") }

// BenchmarkRound measures one synchronous federated round of each built-in
// method across participant-pool widths, plus a heterogeneous-fleet case
// (longtail profiles, a sampled cohort of 6, and a drop deadline) so the
// cohort-selection and straggler-resolution path is tracked alongside the
// homogeneous one. It is the headline number for the parallel execution
// layer: the curve from workers=1 to workers=8 is the wall-clock speedup the
// pool buys on this machine, with results bit-identical at every width
// (TestSerialParallelBitEquality pins that). The fleet cases carry a mode
// dimension — sync barriers on the straggler-resolved cohort, async runs the
// event-driven buffered core — so the aggregation refactor's cost is tracked
// per mode. CI runs it and publishes BENCH_round.json (see cmd/benchjson,
// whose name parsing tolerates the extra fleet and mode dimensions).
func BenchmarkRound(b *testing.B) {
	runCase := func(b *testing.B, method string, workers, participants int, spec fleet.Spec, agg fed.AggSpec) {
		cfg := fed.DefaultConfig()
		cfg.Participants = participants
		cfg.Batch = 3
		cfg.LocalIters = 1
		cfg.DatasetSize = 96
		cfg.EvalSubset = 8
		cfg.PretrainSteps = 60
		cfg.Workers = workers
		cfg.Fleet = spec
		cfg.Agg = agg
		env, err := fed.NewEnv(moe.SimConfigLLaMATrain(), data.GSM8K(), cfg, "bench-round")
		if err != nil {
			b.Fatal(err)
		}
		env = env.CloneForMethod("bench-round/" + method)
		r, err := methods.New(method, cfg)
		if err != nil {
			b.Fatal(err)
		}
		// One untimed round builds the worker pool and the rounder's own
		// state, and warmPool then grows every worker's scratch, so
		// allocs/op is the steady state at any -benchtime instead of that
		// warm-up amortised over b.N.
		if _, err := env.RunRound(r, 0); err != nil {
			b.Fatal(err)
		}
		warmPool(b, env, r)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := env.RunRound(r, i+1); err != nil {
				b.Fatal(err)
			}
		}
	}
	hetero := fleet.Spec{
		Distribution: "longtail",
		Selector:     fleet.SelectorSpec{Policy: "uniform", K: 6},
		Deadline:     8000,
		Drop:         true,
		Seed:         "bench",
	}
	// The async case runs the same heterogeneous fleet through the
	// event-driven core (buffered flushes, carry-over) instead of the barrier
	// reduction; agg-active mode never drops, so the drop policy comes off.
	heteroAsync := hetero
	heteroAsync.Deadline, heteroAsync.Drop = 0, false
	asyncSpec := fed.AggSpec{Mode: fed.ModeAsync, BufferK: 4, StalenessAlpha: 0.5}
	for _, method := range []string{"flux", "fmd"} {
		for _, workers := range []int{1, 2, 8} {
			b.Run(fmt.Sprintf("method=%s/workers=%d", method, workers), func(b *testing.B) {
				runCase(b, method, workers, 8, fleet.Spec{}, fed.AggSpec{})
			})
		}
		// 12 participants so round-robin assignment of the 9-profile longtail
		// distribution actually lands a straggler (index 8) in the fleet.
		b.Run(fmt.Sprintf("method=%s/workers=8/fleet=longtail/mode=sync", method), func(b *testing.B) {
			runCase(b, method, 8, 12, hetero, fed.AggSpec{})
		})
		b.Run(fmt.Sprintf("method=%s/workers=8/fleet=longtail/mode=async", method), func(b *testing.B) {
			runCase(b, method, 8, 12, heteroAsync, asyncSpec)
		})
	}
}

// warmPool grows every scratch of env's worker pool to its steady state: the
// model clone, the update arena, and — over a few full-length random
// sequences, enough to route tokens to every expert — the workspace and the
// lazily allocated expert gradients; then it runs one participant of r on
// each scratch, and the work it hands back, which grows what the method
// keeps per worker (Flux's customized model, merge planner, probe buffers
// and spare profile). A round alone does
// not: the pool hands out slots first come, first served, so on a box with
// fewer cores than workers some scratches sit a round out and would do that
// growing inside the timed region instead. The barrier holds each worker
// goroutine in its first slot until all of them have one.
func warmPool(b *testing.B, env *fed.Env, r fed.Rounder) {
	cohort := env.Cohort(0)
	part := r.Round(env, 0, cohort)
	workers := min(env.Workers(), len(cohort))
	var arrived atomic.Int32
	release := make(chan struct{})
	cfg := env.Global.Cfg
	tuning := fed.IdentityTuning(cfg)
	err := fed.ForEachOf(env, cohort, func(s *fed.Scratch, slot, i int) {
		if int(arrived.Add(1)) == workers {
			close(release)
		}
		<-release
		local := s.LocalClone(env.Global)
		grads := s.Grads(local)
		g := tensor.NewRNG(int64(i))
		seq := make([]int, cfg.MaxSeqLen)
		for k := 0; k < 4; k++ {
			for t := range seq {
				seq[t] = g.Intn(cfg.VocabSize)
			}
			local.ForwardBackwardWS(s.Workspace(), seq, nil, grads, nil, -1)
		}
		s.ExtractUpdate(local, i, 1, tuning)
		if after := part(s, slot, i).After; after != nil {
			after(s)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// Micro-benchmarks for the substrate's hot paths.

// BenchmarkMoEForward is one 48-token forward pass of the LLaMA stand-in:
// ws=none on a fresh workspace per call, as a caller without one gets, and
// ws=warm on a kept one, the engine's steady state, at zero allocations.
func BenchmarkMoEForward(b *testing.B) {
	m := moe.MustNew(moe.SimConfigLLaMATrain(), tensor.Named("bench-fwd"))
	g := tensor.NewRNG(1)
	seq := make([]int, 48)
	for i := range seq {
		seq[i] = g.Intn(m.Cfg.VocabSize)
	}
	b.Run("ws=none", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.ForwardWS(nil, seq, nil, -1)
		}
	})
	b.Run("ws=warm", func(b *testing.B) {
		ws := moe.NewWorkspace()
		m.ForwardWS(ws, seq, nil, -1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.ForwardWS(ws, seq, nil, -1)
		}
	})
}

// BenchmarkForwardBackward contrasts a nil workspace (ws=none: the pass
// allocates a private one per call) with the warm per-worker workspace the
// federated engine actually runs (ws=warm, zero steady-state allocations).
// Both train every expert, as pre-training and FMD do; model=customized is
// the pass a flux participant runs — a Customize'd local model with 5 of 48
// experts trainable (one in each layer above the first) and the rest merged
// into two frozen experts per layer, on a warm workspace. CI publishes it
// into bench/BENCH_micro.json.
func BenchmarkForwardBackward(b *testing.B) {
	m := moe.MustNew(moe.SimConfigLLaMATrain(), tensor.Named("bench-fb-ws"))
	g := tensor.NewRNG(4)
	seq := make([]int, 48)
	for i := range seq {
		seq[i] = g.Intn(m.Cfg.VocabSize)
	}
	grads := moe.NewGrads(m, false)
	b.Run("ws=none", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.ForwardBackwardWS(nil, seq, nil, grads, nil, -1)
		}
	})
	b.Run("ws=warm", func(b *testing.B) {
		ws := moe.NewWorkspace()
		m.ForwardBackwardWS(ws, seq, nil, grads, nil, -1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.ForwardBackwardWS(ws, seq, nil, grads, nil, -1)
		}
	})
	b.Run("model=customized", func(b *testing.B) {
		specs := make([]moe.LayerSpec, m.Cfg.Layers())
		for l, n := range m.Cfg.ExpertsPerLayer {
			rest := make([]int, n)
			for e := range rest {
				rest[e] = e
			}
			if l > 0 { // expert l of layer l trains
				specs[l].Tuning = []int{l}
				rest = append(rest[:l], rest[l+1:]...)
			}
			specs[l].MergeGroups = [][]int{rest[:len(rest)/2], rest[len(rest)/2:]}
		}
		local, err := moe.Customize(m, specs)
		if err != nil {
			b.Fatal(err)
		}
		ws := moe.NewWorkspace()
		grads := moe.NewGrads(local, false)
		local.ForwardBackwardWS(ws, seq, nil, grads, nil, -1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			local.ForwardBackwardWS(ws, seq, nil, grads, nil, -1)
		}
	})
}

// BenchmarkEvaluate is the evaluation rung of the ladder: the sweep
// Env.Evaluate runs after every round, over 16 held-out samples on warm
// worker workspaces, fanned over workers={1,2}. task=generation
// greedy-decodes gsm8k completions on the LLaMA stand-in; task=choice scores
// mmlu options on the DeepSeek stand-in. The K/V-cached decode path leaves
// three allocations per generated sample (the returned tokens and RougeL's
// two LCS rows) and none per scored one; the rest is the fan-out's fixed
// per-call cost (labels, score slots, goroutines). benchguard gates that
// through bench/BENCH_micro.json.
func BenchmarkEvaluate(b *testing.B) {
	cases := []struct {
		task    string
		cfg     moe.Config
		profile data.Profile
	}{
		{"generation", moe.SimConfigLLaMATrain(), data.GSM8K()},
		{"choice", moe.SimConfigDeepSeekTrain(), data.MMLU()},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("task=%s/workers=%d", c.task, workers), func(b *testing.B) {
				env := &fed.Env{
					Cfg:     fed.Config{Workers: workers},
					Profile: c.profile,
					Global:  moe.MustNew(c.cfg, tensor.Named("bench-eval")),
					Test:    data.Generate(c.profile, c.cfg.VocabSize, 16, tensor.NewRNG(6)).Samples,
				}
				env.Evaluate()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					env.Evaluate()
				}
			})
		}
	}
}

// BenchmarkMatMul tracks the matmul at the model's own shapes — the 64×24 ×
// 24×24 attention projection of the training config; a 22-token
// sequence's attention projection, its gate logits over 8 experts and its
// 48-column head; and 4×24 × 24×48, one block of an expert's W1 sweep, all
// on the four-row tier where AVX-512F runs — and at a shape large enough to
// exercise the blocked path's packing loop everywhere else.
func BenchmarkMatMul(b *testing.B) {
	shapes := []struct {
		name    string
		m, k, n int
	}{
		{"shape=64x24x24", 64, 24, 24},
		{"shape=22x24x8", 22, 24, 8},
		{"shape=22x24x24", 22, 24, 24},
		{"shape=4x24x48", 4, 24, 48},
		{"shape=22x24x48", 22, 24, 48},
		{"shape=256x192x160", 256, 192, 160},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			g := tensor.NewRNG(5)
			x := tensor.NewMatrix(sh.m, sh.k)
			y := tensor.NewMatrix(sh.k, sh.n)
			x.RandInit(g, 1)
			y.RandInit(g, 1)
			out := tensor.NewMatrix(sh.m, sh.n)
			var ms tensor.MulScratch
			ms.MatMulInto(out, x, y)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ms.MatMulInto(out, x, y)
			}
		})
	}
}

// BenchmarkPretrain is the setup rung of the ladder: one cold base-model
// pre-training (fed.BaseModel with its cache cleared) at the 24 llama steps
// every fluxbench workload pre-trains for, which is most of fluxbench's
// setup_s. It runs the all-trainable forward/backward path with embedding
// gradients, which no other rung covers.
func BenchmarkPretrain(b *testing.B) { benchPretrain(b, 0) }

// BenchmarkPretrainWidth is BenchmarkPretrain at a pinned Config.Workers:
// the width of moe.PretrainContext's wavefront, whose workers=1 row is the
// serial schedule on the calling goroutine. The gap between the rows is
// what the pool saves every cold setup.
func BenchmarkPretrainWidth(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) { benchPretrain(b, workers) })
	}
}

func benchPretrain(b *testing.B, workers int) {
	cfg := fed.DefaultConfig()
	cfg.PretrainSteps = 24
	cfg.Workers = workers
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fed.ResetBaseModelCache()
		if _, err := fed.BaseModel(moe.SimConfigLLaMATrain(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuantizeModel(b *testing.B) {
	m := moe.MustNew(moe.SimConfigLLaMATrain(), tensor.Named("bench-quant"))
	qm := m.CloneInto(nil) // the profiling clone, reused as a worker scratch reuses it
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qm = m.CloneInto(qm)
		moe.Quantize(qm, quant.Bits4)
	}
}

// BenchmarkQuantizedGlobal is the per-round profiling model as Rounders get
// it, at workers={1,2}. op=full is a cold build: each iteration swaps
// Env.Global for another model, so QuantizedGlobal clones it into the
// environment's buffer and fans the quantization units over the pool
// (BenchmarkQuantizeModel above is the same work on one goroutine).
// op=incremental is the steady state: each iteration first runs an untimed
// round whose update names 40% of the experts, about the share a flux-sync
// round writes, and QuantizedGlobal then re-quantizes only those.
func BenchmarkQuantizedGlobal(b *testing.B) {
	for _, op := range []string{"full", "incremental"} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("op=%s/workers=%d", op, workers), func(b *testing.B) {
				models := [2]*moe.Model{moe.MustNew(moe.SimConfigLLaMATrain(), tensor.Named("bench-quant"))}
				models[1] = models[0].CloneInto(nil)
				env := &fed.Env{Cfg: fed.Config{Participants: 1, Workers: workers}, Global: models[0]}
				env.QuantizedGlobal(quant.Bits4)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if op == "full" {
						env.Global = models[(i+1)%2]
					} else {
						b.StopTimer()
						if _, err := env.RunRound(touchRounder{}, i); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
					}
					env.QuantizedGlobal(quant.Bits4)
				}
			})
		}
	}
}

// touchRounder is one participant whose update names 40% of the global
// model's experts, at their current values, so a round marks them for
// re-quantization without moving the model.
type touchRounder struct{}

func (touchRounder) Name() string { return "touch" }

func (touchRounder) Round(env *fed.Env, _ int, _ []int) fed.Participant {
	tuning := make([][]int, env.Global.Cfg.Layers())
	for l, n := range env.Global.Cfg.ExpertsPerLayer {
		for e := 0; e < n; e++ {
			if (l+e)%5 < 2 {
				tuning[l] = append(tuning[l], e)
			}
		}
	}
	return func(s *fed.Scratch, _, i int) fed.SlotResult {
		return fed.SlotResult{Update: s.ExtractUpdate(env.Global, i, 1, tuning)}
	}
}

func BenchmarkProfilingPass(b *testing.B) {
	m := moe.MustNew(moe.SimConfigLLaMATrain(), tensor.Named("bench-prof"))
	ds := data.Generate(data.GSM8K(), m.Cfg.VocabSize, 8, tensor.NewRNG(3))
	p := profile.Profiler{Bits: quant.Bits4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Run(m, ds.Samples)
	}
}

func BenchmarkFedAggregate(b *testing.B) {
	m := moe.MustNew(moe.SimConfigLLaMATrain(), tensor.Named("bench-agg"))
	tuning := make([][]int, m.Cfg.Layers())
	for l := range tuning {
		tuning[l] = []int{0, 1, 2}
	}
	updates := make([]fed.Update, 10)
	for i := range updates {
		updates[i] = fed.ExtractUpdate(m, i, 1, tuning)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fed.Aggregate(m, updates)
	}
}

// BenchmarkModelCodec is the model codec on the LLaMA stand-in: op=encode is
// AppendEncoded into a buffer kept across calls (no allocation; the TCP
// server writes the same walk as views of the model instead of copies),
// op=decode is DecodeBytes with its shape checks into a new model (the
// checkpoint-load path), and op=decode-into is DecodeInto of the same bytes
// into a replica it keeps (no allocation; a TCP client decodes the same way
// from its connection). CI publishes it into bench/BENCH_micro.json.
func BenchmarkModelCodec(b *testing.B) {
	m := moe.MustNew(moe.SimConfigLLaMATrain(), tensor.Named("bench-codec"))
	blob, err := m.EncodeBytes()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("op=encode", func(b *testing.B) {
		w := codec.Writer{Buf: make([]byte, 0, len(blob))}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Reset()
			if err := m.AppendEncoded(&w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("op=decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := moe.DecodeBytes(blob); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("op=decode-into", func(b *testing.B) {
		replica := m.CloneInto(nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := moe.DecodeInto(replica, codec.NewReader(blob)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkOffloadVsCompute reports the simulated cost ratio that motivates
// Flux over FMD (an ablation-style sanity bench, not a paper figure).
func BenchmarkOffloadVsCompute(b *testing.B) {
	cfg := moe.SimConfigLLaMATrain()
	dev := simtime.ConsumerTiers()[0]
	total := 0
	for _, e := range cfg.ExpertsPerLayer {
		total += e
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		compute := dev.Seconds(simtime.TrainFlops(cfg, 16*cfg.MaxSeqLen, 1.0))
		offload := dev.OffloadSeconds(cfg, int(2*(1-dev.CapacityFrac)*float64(total)))
		ratio = offload / compute
	}
	b.ReportMetric(ratio, "offload/compute")
}
