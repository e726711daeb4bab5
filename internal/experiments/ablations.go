package experiments

import (
	"fmt"
	"time"

	"repro/internal/baselines"
	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/fed"
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
	env, err := fed.NewEnv(modelByName("llama"), profileData, cfg, seed)
	if err != nil {
		panic(err)
	}
	env = env.CloneForMethod(seed)
	opts := flux.DefaultOptions(cfg.MaxRounds)
	if mutate != nil {
		mutate(&opts)
	}
	r := flux.New(opts, cfg.Participants)
	tr, clock := fed.Run(env, r, profileData.TargetAcc)
	tta, reached := tr.TimeToTarget(profileData.TargetAcc)
	return &methodRun{Tracker: tr, Hours: clock.Hours(), Final: tr.Final(), TTA: tta, Reached: reached, Phases: phaseMap(clock)}
}

// Figure14 reproduces the stale-profiling ablation: estimation error and
// per-round time with and without pipelined (stale) profiling.
func Figure14(o Options) *Table {
	t := &Table{
		Title:  "Figure 14: impact of stale profiling (2-bit)",
		Header: []string{"dataset", "err w/o stale (%)", "err w/ stale (%)", "round w/o stale (s)", "round w/ stale (s)"},
		Notes:  []string{"paper: <2% extra error, ~28% round-time reduction"},
	}
	rounds := 5
	if o.Quick {
		rounds = 3
	}
	for _, p := range ablationDatasets(o) {
		cfg := trainConfig(o)
		cfg.MaxRounds = rounds
		env, err := fed.NewEnv(modelByName("llama"), p, cfg, "fig14/"+p.Name)
		if err != nil {
			panic(err)
		}
		// Estimation error of a one-round-stale 2-bit profile vs a fresh
		// full-precision profile after one round of drift.
		prof := profile.Profiler{Bits: quant.Bits2}
		probe := env.Batch(0, 0)
		stale := prof.Run(env.Global, probe)
		envDrift := env.CloneForMethod("fig14drift")
		(baselines.FMD{}).Round(envDrift, 0)
		freshRef := prof.RunFull(envDrift.Global, probe)
		freshEst := prof.Run(envDrift.Global, probe)
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
	t := &Table{
		Title:  "Figure 15: impact of adaptive expert layer size",
		Header: []string{"dataset", "err single", "err uniform", "err adaptive", "tta single (h)", "tta uniform (h)", "tta adaptive (h)"},
		Notes:  []string{"paper: adaptive budgets cut output error (e.g. -47.6% vs uniform on GSM8K) and reach targets sooner"},
	}
	for _, p := range ablationDatasets(o) {
		row := []string{p.Name}
		var errs, ttas []string
		for _, pol := range []merge.BudgetPolicy{merge.BudgetSingle, merge.BudgetUniform, merge.BudgetAdaptive} {
			errs = append(errs, f3(mergedOutputError(o, p, pol, merge.StrategyAttnFreq)))
			run := fluxVariantRun(o, p, fmt.Sprintf("fig15/%s/%s", p.Name, pol), func(op *flux.Options) {
				op.Merge.Policy = pol
			})
			if run.Reached {
				ttas = append(ttas, f2(run.TTA))
			} else {
				ttas = append(ttas, fmt.Sprintf(">%.1f", run.Hours))
			}
		}
		row = append(row, errs...)
		row = append(row, ttas...)
		t.AddRow(row...)
	}
	return t
}

// mergedOutputError builds a Flux-style compact model under the given
// merging configuration and measures its forward output error.
func mergedOutputError(o Options, p data.Profile, pol merge.BudgetPolicy, strat merge.Strategy) float64 {
	cfg := trainConfig(o)
	env, err := fed.NewEnv(modelByName("llama"), p, cfg, "merr/"+p.Name)
	if err != nil {
		panic(err)
	}
	m := env.Global
	samples := env.Batch(0, 0)
	stats := profile.Profiler{Bits: quant.Bits8, TrackSamples: true}.RunFull(m, samples).Stats

	capacity, tune := env.Budgets(0)
	tb := assign.NewUtilityTable(stats)
	a := assign.Assign(tb, m.Cfg.ExpertsPerLayer, tune, 1.0, tensor.Named("merr/"+p.Name))
	tuning := a.Tuning(m.Cfg.Layers())

	opt := merge.DefaultOptions()
	opt.Policy = pol
	opt.Strategy = strat
	plan, err := merge.BuildPlan(m, stats, tuning, capacity-len(a.Exploit), opt, tensor.Named("merr2/"+p.Name))
	if err != nil {
		panic(err)
	}
	local, err := moe.Customize(m, plan.Specs)
	if err != nil {
		panic(err)
	}
	var seqs [][]int
	for _, s := range samples {
		seq, _ := s.FullSequence()
		seqs = append(seqs, seq)
	}
	return merge.OutputError(local, m, seqs)
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

// Figure17 reproduces the merging-strategy ablation: plain averaging vs
// frequency weighting vs frequency × attention (Eq. 2).
func Figure17(o Options) *Table {
	t := &Table{
		Title:  "Figure 17: efficiency of merging strategies",
		Header: []string{"dataset", "err avg", "err freq", "err attn+freq", "tta avg (h)", "tta freq (h)", "tta attn+freq (h)"},
		Notes:  []string{"paper: attn+freq lowers output error (e.g. -34.4% vs avg on Dolly) and speeds convergence"},
	}
	for _, p := range ablationDatasets(o) {
		row := []string{p.Name}
		var errs, ttas []string
		for _, strat := range []merge.Strategy{merge.StrategyAvg, merge.StrategyFreq, merge.StrategyAttnFreq} {
			errs = append(errs, f3(mergedOutputError(o, p, merge.BudgetAdaptive, strat)))
			run := fluxVariantRun(o, p, fmt.Sprintf("fig17/%s/%s", p.Name, strat), func(op *flux.Options) {
				op.Merge.Strategy = strat
			})
			if run.Reached {
				ttas = append(ttas, f2(run.TTA))
			} else {
				ttas = append(ttas, fmt.Sprintf(">%.1f", run.Hours))
			}
		}
		row = append(row, errs...)
		row = append(row, ttas...)
		t.AddRow(row...)
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
		env, err := fed.NewEnv(modelByName("llama"), p, cfg, "fig18/"+p.Name)
		if err != nil {
			panic(err)
		}
		env = env.CloneForMethod("fig18")
		var fmd baselines.FMD
		var series string
		var sum float64
		n := 0
		for r := 0; r < rounds; r++ {
			fmd.Round(env, r)
			// Measure on the most-active expert of a mid layer.
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
			est := assign.EstimateGradientSPSA(env.Global, nil, key, seqs, masks, probes, 0.01,
				tensor.Named(fmt.Sprintf("fig18/%s/%d", p.Name, r)))
			d := tensor.CosineDist(truth, est.Direction)
			series += f2(d) + " "
			sum += d
			n++
		}
		t.AddRow(p.Name, series, f2(sum/float64(n)))
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
			tta := fmt.Sprintf(">%.1f", run.Hours)
			if run.Reached {
				tta = f2(run.TTA)
			}
			t.AddRow(p.Name, arm.name, f3(run.Final), tta)
		}
	}
	return t
}
