package experiments

import (
	"fmt"
	"time"

	"repro/internal/baselines"
	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/flux"
	"repro/internal/flux/assign"
	"repro/internal/flux/merge"
	"repro/internal/flux/profile"
	"repro/internal/moe"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// fluxVariantRun executes a Flux run with modified options and returns the
// tracker plus the clock.
func fluxVariantRun(o Options, profileData data.Profile, seed string, mutate func(*flux.Options)) *methodRun {
	cfg := trainConfig(o)
	opts := flux.DefaultOptions(cfg.MaxRounds)
	if mutate != nil {
		mutate(&opts)
	}
	return runMethod(newEnv("llama", profileData, cfg, seed, seed), flux.New(opts, cfg.Participants), profileData.TargetAcc, profileData.TargetAcc, nil)
}

// Figure14 reproduces the stale-profiling ablation: estimation error and
// per-round time with and without pipelined (stale) profiling.
func Figure14(o Options) *Table {
	t := &Table{
		Title:  "Figure 14: impact of stale profiling (2-bit)",
		Header: []string{"dataset", "err w/o stale (%)", "err w/ stale (%)", "round w/o stale (s)", "round w/ stale (s)"},
		Notes:  []string{"paper: <2% extra error, ~28% round-time reduction"},
	}
	for _, p := range ablationDatasets(o) {
		// Estimation error of a one-round-stale 2-bit profile vs a fresh
		// full-precision profile after one round of drift.
		cfg := trainConfig(o)
		cfg.MaxRounds = 1
		env := newEnv("llama", p, cfg, "fig14/"+p.Name, "fig14drift")
		prof := profile.Profiler{Bits: quant.Bits2}
		probe := env.Batch(0, 0)
		stale := prof.Run(env.Global, probe)
		runMethod(env, baselines.FMD{}, 0, p.TargetAcc, nil)
		freshRef := prof.RunFull(env.Global, probe)
		freshEst := prof.Run(env.Global, probe)
		errFresh := 100 * freshEst.Stats.EstimationError(freshRef.Stats)
		errStale := 100 * stale.Stats.EstimationError(freshRef.Stats)

		// Round time with and without pipelining.
		roundTime := func(stale bool) float64 {
			run := fluxVariantRun(o, p, fmt.Sprintf("fig14/%s/stale=%v", p.Name, stale), func(op *flux.Options) {
				op.StaleProfiling = stale
				op.ProfileBits = quant.Bits2
			})
			return run.Hours * 3600 / float64(len(run.Tracker.Points)-1)
		}
		t.AddRow(p.Name, f2(errFresh), f2(errStale), f2(roundTime(false)), f2(roundTime(true)))
	}
	return t
}

// Figure15 reproduces the adaptive-expert-layer-size ablation: single
// merged expert vs uniform budgets vs Eq. (1).
func Figure15(o Options) *Table {
	return mergeAblation(o, &Table{
		Title:  "Figure 15: impact of adaptive expert layer size",
		Header: []string{"dataset", "err single", "err uniform", "err adaptive", "tta single (h)", "tta uniform (h)", "tta adaptive (h)"},
		Notes:  []string{"paper: adaptive budgets cut output error (e.g. -47.6% vs uniform on GSM8K) and reach targets sooner"},
	}, "fig15", []merge.BudgetPolicy{merge.BudgetSingle, merge.BudgetUniform, merge.BudgetAdaptive},
		func(opt *merge.Options, pol merge.BudgetPolicy) { opt.Policy = pol })
}

// Figure17 reproduces the merging-strategy ablation: plain averaging vs
// frequency weighting vs frequency × attention (Eq. 2).
func Figure17(o Options) *Table {
	return mergeAblation(o, &Table{
		Title:  "Figure 17: efficiency of merging strategies",
		Header: []string{"dataset", "err avg", "err freq", "err attn+freq", "tta avg (h)", "tta freq (h)", "tta attn+freq (h)"},
		Notes:  []string{"paper: attn+freq lowers output error (e.g. -34.4% vs avg on Dolly) and speeds convergence"},
	}, "fig17", []merge.Strategy{merge.StrategyAvg, merge.StrategyFreq, merge.StrategyAttnFreq},
		func(opt *merge.Options, s merge.Strategy) { opt.Strategy = s })
}

// mergeAblation fills t with one row per ablation dataset: each arm's merged
// output error (mergeBase.outputError), then each arm's Flux time to
// accuracy, where an arm is merge.DefaultOptions with set applied for it.
func mergeAblation[A any](o Options, t *Table, fig string, arms []A, set func(*merge.Options, A)) *Table {
	for _, p := range ablationDatasets(o) {
		row := []string{p.Name}
		var ttas []string
		base := newMergeBase(o, p)
		for _, arm := range arms {
			row = append(row, f3(base.outputError(func(opt *merge.Options) { set(opt, arm) })))
			run := fluxVariantRun(o, p, fmt.Sprintf("%s/%s/%v", fig, p.Name, arm), func(op *flux.Options) {
				set(&op.Merge, arm)
			})
			ttas = append(ttas, run.ttaCell())
		}
		t.AddRow(append(row, ttas...)...)
	}
	return t
}

// mergeBase is what every arm of a merge ablation on one dataset shares:
// participant 0's model, profile, expert assignment and batch.
type mergeBase struct {
	name   string
	m      *moe.Model
	stats  *moe.ActivationStats
	tuning [][]int
	budget int // the merged experts' capacity: the device's minus the exploited experts
	seqs   [][]int
}

// newMergeBase builds participant 0's environment for dataset p and
// profiles and assigns its model once, for every arm.
func newMergeBase(o Options, p data.Profile) *mergeBase {
	env := newEnv("llama", p, trainConfig(o), "merr/"+p.Name, "merr")
	m := env.Global
	samples := env.Batch(0, 0)
	stats := profile.Profiler{Bits: quant.Bits8, TrackSamples: true}.RunFull(m, samples).Stats

	capacity, tune := env.Budgets(0)
	tb := assign.NewUtilityTable(stats)
	a := assign.Assign(tb, m.Cfg.ExpertsPerLayer, tune, 1.0, tensor.Named("merr/"+p.Name))
	var seqs [][]int
	for _, s := range samples {
		seq, _ := s.FullSequence()
		seqs = append(seqs, seq)
	}
	return &mergeBase{name: p.Name, m: m, stats: stats, tuning: a.Tuning(m.Cfg.Layers()),
		budget: capacity - len(a.Exploit), seqs: seqs}
}

// outputError builds a Flux-style compact model under merge.DefaultOptions
// with set applied and measures its forward output error.
func (b *mergeBase) outputError(set func(*merge.Options)) float64 {
	opt := merge.DefaultOptions()
	set(&opt)
	plan, err := merge.BuildPlan(b.m, b.stats, b.tuning, b.budget, opt, tensor.Named("merr2/"+b.name))
	if err != nil {
		panic(err)
	}
	local, err := moe.CustomizeInto(nil, b.m, plan.Specs)
	if err != nil {
		panic(err)
	}
	return merge.OutputError(local, b.m, b.seqs)
}

// Figure16 measures the clustering cost of fused cross-layer K-Means
// against per-layer independent K-Means for 128 non-tuning experts.
func Figure16(o Options) *Table {
	t := &Table{
		Title:  "Figure 16: cost of clustering 128 non-tuning experts (wall-clock ms)",
		Header: []string{"total budget", "per-layer (ms)", "fused (ms)", "speedup"},
		Notes:  []string{"paper: 323.55ms -> 8.07ms, ~40x from fusing the per-layer problems"},
	}
	m := profileBase(o)
	// 128 non-tuning experts: 8 layers × 16.
	var points []cluster.LayerPoint
	var rows [][]float64
	opt := merge.DefaultOptions()
	for l := 0; l < 8; l++ {
		for e := 0; e < 16; e++ {
			points = append(points, cluster.LayerPoint{Layer: l, Expert: e})
			rows = append(rows, merge.Sketch(m.ExpertAt(l, e), opt.SketchDims))
		}
	}
	feats := tensor.NewMatrix(len(rows), opt.SketchDims)
	for i, r := range rows {
		copy(feats.Row(i), r)
	}
	g := tensor.Named("fig16")
	reps := 5
	if o.Quick {
		reps = 3
	}
	for _, budget := range []int{32, 48, 64, 96} {
		per := budget / 8
		budgets := make([]int, 8)
		for i := range budgets {
			budgets[i] = per
		}
		timeIt := func(fused bool) float64 {
			//fluxvet:allow wallclock microbenchmark measuring real clustering kernel cost for the ablation table
			start := time.Now()
			for r := 0; r < reps; r++ {
				b := append([]int(nil), budgets...)
				var err error
				if fused {
					_, err = cluster.FusedKMeans(feats, points, b, opt.KMeansIters, g.Split("f"))
				} else {
					_, err = cluster.PerLayerKMeans(feats, points, b, opt.KMeansIters, g.Split("p"))
				}
				if err != nil {
					panic(err)
				}
			}
			//fluxvet:allow wallclock microbenchmark measuring real clustering kernel cost for the ablation table
			return float64(time.Since(start).Microseconds()) / float64(reps) / 1000
		}
		layerMs := timeIt(false)
		fusedMs := timeIt(true)
		t.AddRow(fmt.Sprintf("%d", budget), f2(layerMs), f2(fusedMs), f2(layerMs/fusedMs))
	}
	return t
}

// Figure18 reproduces the gradient-estimation study: cosine distance
// between SPSA estimates and backprop gradients across fine-tuning rounds.
func Figure18(o Options) *Table {
	rounds := 10
	if o.Quick {
		rounds = 5
	}
	probes := 16
	if o.Quick {
		probes = 8
	}
	t := &Table{
		Title:  "Figure 18: forward-only gradient estimation vs ground truth (cosine distance)",
		Header: []string{"dataset", "per-round distances", "mean"},
		Notes:  []string{"paper: average distance 0.29, decreasing as fine-tuning progresses"},
	}
	for _, p := range ablationDatasets(o) {
		cfg := trainConfig(o)
		cfg.MaxRounds = rounds
		env := newEnv("llama", p, cfg, "fig18/"+p.Name, "fig18")
		var series string
		var sum float64
		runMethod(env, baselines.FMD{}, 0, p.TargetAcc, func(done int) {
			if done == 0 {
				return
			}
			// Measure round r on the most-active expert of a mid layer.
			r := done - 1
			batch := env.Batch(0, r)
			var seqs [][]int
			var masks [][]bool
			for _, s := range batch[:2] {
				seq, mask := s.FullSequence()
				seqs = append(seqs, seq)
				masks = append(masks, mask)
			}
			key := mostActiveExpert(env.Global, seqs)
			truth := assign.TrueExpertGradient(env.Global, key, seqs, masks)
			est := assign.ProbeExploreSPSA(env.Global, nil, []assign.Key{key}, seqs, masks, probes, 0.01,
				func(assign.Key) *tensor.RNG { return tensor.Named(fmt.Sprintf("fig18/%s/%d", p.Name, r)) })
			d := tensor.CosineDist(truth, est[0].Direction)
			series += f2(d) + " "
			sum += d
		})
		t.AddRow(p.Name, series, f2(sum/float64(rounds)))
	}
	return t
}

func mostActiveExpert(m *moe.Model, seqs [][]int) assign.Key {
	stats := moe.NewActivationStats(m.Cfg, false)
	ws := moe.NewWorkspace()
	for _, seq := range seqs {
		m.ForwardWS(ws, seq, stats, -1)
	}
	layer := m.Cfg.Layers() / 2
	fr := stats.FrequencyMatrix()[layer]
	return assign.Key{Layer: layer, Expert: tensor.ArgMax(fr)}
}

// Figure19 reproduces the ε-strategy comparison: fixed 0.3, fixed 0.7, and
// the dynamic ramp.
func Figure19(o Options) *Table {
	t := &Table{
		Title:  "Figure 19: exploration-exploitation strategies",
		Header: []string{"dataset", "eps", "final", "tta (h)"},
		Notes:  []string{"paper: dynamic eps converges fastest; eps=0.3 unstable, eps=0.7 underexplores"},
	}
	for _, p := range ablationDatasets(o) {
		for _, arm := range []struct {
			name string
			eps  assign.EpsilonSchedule
		}{
			{"0.3", assign.FixedEpsilon(0.3)},
			{"0.7", assign.FixedEpsilon(0.7)},
			{"dynamic", assign.DefaultDynamicEpsilon(trainConfig(o).MaxRounds)},
		} {
			run := fluxVariantRun(o, p, fmt.Sprintf("fig19/%s/%s", p.Name, arm.name), func(op *flux.Options) {
				op.Eps = arm.eps
			})
			t.AddRow(p.Name, arm.name, f3(run.Final), run.ttaCell())
		}
	}
	return t
}
