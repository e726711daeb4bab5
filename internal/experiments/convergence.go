package experiments

import (
	"context"
	"fmt"

	"repro/internal/data"
	"repro/internal/fed"
	"repro/internal/methods"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// methodNames is the fixed comparison order of the paper's figures.
var methodNames = []string{"fmd", "fmq", "fmes", "flux"}

func newRounder(name string, cfg fed.Config) fed.Rounder {
	r, err := methods.New(name, cfg)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return r
}

// runMethod runs r on env until target (0: the whole round budget) and
// summarizes the run against targetAcc, its curve built from the loop's
// records. after, if non-nil, is called each time the model has been scored
// with the number of rounds run so far, from 0 for the baseline on. An
// experiment neither cancels nor expects a rejected update, so a failed round
// is a programming error and panics.
func runMethod(env *fed.Env, r fed.Rounder, target, targetAcc float64, after func(rounds int)) *methodRun {
	run := &methodRun{Tracker: &metrics.Tracker{Target: env.Profile.MetricName}}
	round := func(_ context.Context, n int) (fed.RoundStats, error) { return env.RunRound(r, n) }
	clock, err := fed.Run(context.TODO(), env, round, target, nil, func(s fed.RoundStats, rd obs.Round) {
		run.Tracker.Record(rd.Round, rd.EndSec/3600, rd.Score)
		run.Stale += s.Stale
		run.ModelVersion = s.ModelVersion
		if after != nil {
			after(rd.Round)
		}
	})
	if err != nil {
		panic("experiments: " + err.Error())
	}
	run.Hours, run.Final, run.Phases = clock.Hours(), run.Tracker.Final(), clock.Breakdown()
	run.TTA, run.Reached = run.Tracker.TimeToTarget(targetAcc)
	return run
}

// convergenceRun executes (or recalls) one (model, dataset, method,
// participants) federated run to MaxRounds or the dataset target.
func convergenceRun(o Options, model, method string, profile data.Profile, participants int, toTarget bool) *methodRun {
	key := fmt.Sprintf("%s/%s/%s/p%d/q%v/t%v/f%s/a%s", model, method, profile.Name, participants, o.Quick, toTarget, specKey(o.Fleet), specKey(o.Agg))
	memoMu.Lock()
	if r, ok := runMemo[key]; ok {
		memoMu.Unlock()
		return r
	}
	memoMu.Unlock()

	cfg := trainConfig(o)
	cfg.Participants = participants
	env := newEnv(model, profile, cfg, fmt.Sprintf("conv/%s/%s/p%d", model, profile.Name, participants), method)
	target := 0.0
	if toTarget {
		target = profile.TargetAcc
	}
	run := runMethod(env, newRounder(method, cfg), target, profile.TargetAcc, nil)
	memoMu.Lock()
	runMemo[key] = run
	memoMu.Unlock()
	return run
}

// convergenceFigure renders Figures 10/11: relative-accuracy curves for the
// four methods on the four datasets.
func convergenceFigure(o Options, model, title string) *Table {
	t := &Table{
		Title:  title,
		Header: []string{"dataset", "method", "curve (rel-acc @ hours)", "final", "reached"},
	}
	for _, p := range datasetList() {
		for _, m := range methodNames {
			run := convergenceRun(o, model, m, p, trainConfig(o).Participants, true)
			t.AddRow(p.Name, m, sparkline(run.Tracker, p.TargetAcc), f3(run.Final), fmt.Sprintf("%v", run.Reached))
		}
	}
	t.Notes = append(t.Notes,
		"relative accuracy = score / the dataset's sim-scale target ("+f2(datasetList()[0].TargetAcc)+" for "+datasetList()[0].Name+", etc.)",
		"expected shape: FLUX converges fastest; FMQ unstable/plateaus; FMD stable but slow (offload I/O)")
	return t
}

// sparkline compresses a convergence curve to a short textual series.
func sparkline(tr *metrics.Tracker, target float64) string {
	pts := tr.Points
	stride := 1
	if len(pts) > 8 {
		stride = len(pts) / 8
	}
	var out string
	for i := 0; i < len(pts); i += stride {
		p := pts[i]
		out += fmt.Sprintf("%.2f@%.1fh ", metrics.RelativeAccuracy(p.Score, target), p.TimeHours)
	}
	return out
}

// Figure10 reproduces the LLaMA-MoE convergence comparison.
func Figure10(o Options) *Table {
	return convergenceFigure(o, "llama", "Figure 10: convergence on LLaMA-MoE (4 methods x 4 datasets)")
}

// Figure11 reproduces the DeepSeek-MoE convergence comparison.
func Figure11(o Options) *Table {
	return convergenceFigure(o, "deepseek", "Figure 11: convergence on DeepSeek-MoE (4 methods x 4 datasets)")
}

// Table2 reports final scores after the full round budget per method, as in
// the paper's Table 2.
func Table2(o Options) *Table {
	t := &Table{
		Title:  "Table 2: final achieved score by method",
		Header: []string{"model", "method", "dolly", "gsm8k", "mmlu", "piqa"},
		Notes: []string{
			"paper shape: FMD ~= FLUX > FMES > FMQ",
		},
	}
	for _, model := range []string{"llama", "deepseek"} {
		for _, m := range methodNames {
			row := []string{model, m}
			for _, p := range datasetList() {
				// Quick mode reuses the to-target runs (best score observed);
				// full scale runs every method for the whole round budget.
				run := convergenceRun(o, model, m, p, trainConfig(o).Participants, o.Quick)
				row = append(row, f3(run.Tracker.Best()))
			}
			t.AddRow(row...)
		}
	}
	return t
}

// scalabilityFigure renders Figures 12/13: time-to-accuracy versus the
// number of participants.
func scalabilityFigure(o Options, model, title string) *Table {
	counts := []int{10, 15, 20, 25, 30}
	if o.Quick {
		counts = []int{6, 12}
	}
	datasets := datasetList()
	if o.Quick {
		datasets = []data.Profile{data.GSM8K(), data.PIQA()}
	}
	t := &Table{
		Title:  title,
		Header: []string{"dataset", "method"},
	}
	for _, n := range counts {
		t.Header = append(t.Header, fmt.Sprintf("TTA@%dp (h)", n))
	}
	for _, p := range datasets {
		for _, m := range methodNames {
			row := []string{p.Name, m}
			for _, n := range counts {
				row = append(row, convergenceRun(o, model, m, p, n, true).ttaCell())
			}
			t.AddRow(row...)
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: TTA falls with more participants with diminishing returns; FLUX lowest everywhere",
		"'>' marks runs that did not reach the target within the round budget")
	return t
}

// Figure12 reproduces the LLaMA-MoE scalability study.
func Figure12(o Options) *Table {
	return scalabilityFigure(o, "llama", "Figure 12: time-to-accuracy vs participants (LLaMA-MoE)")
}

// Figure13 reproduces the DeepSeek-MoE scalability study.
func Figure13(o Options) *Table {
	return scalabilityFigure(o, "deepseek", "Figure 13: time-to-accuracy vs participants (DeepSeek-MoE)")
}

// Figure20 reports Flux's per-phase overhead breakdown.
func Figure20(o Options) *Table {
	t := &Table{
		Title:  "Figure 20: FLUX round-time breakdown (% of total)",
		Header: []string{"dataset", "profiling", "merging", "assignment", "fine-tuning", "communication"},
		Notes:  []string{"paper: fine-tuning ~95%, all FLUX machinery ~5%"},
	}
	for _, p := range datasetList() {
		run := convergenceRun(o, "llama", "flux", p, trainConfig(o).Participants, true)
		// Fold in sorted order: map iteration would accumulate the float
		// total in randomized order and drift its last bit between runs.
		var total float64
		for _, k := range simtime.PhaseOrder(nil, run.Phases, nil) {
			total += run.Phases[k]
		}
		if total == 0 {
			total = 1
		}
		pct := func(phase simtime.Phase) string {
			return fmt.Sprintf("%.2f%%", 100*run.Phases[phase]/total)
		}
		t.AddRow(p.Name, pct(simtime.PhaseProfiling), pct(simtime.PhaseMerging),
			pct(simtime.PhaseAssignment), pct(simtime.PhaseFineTuning), pct(simtime.PhaseComm))
	}
	return t
}
