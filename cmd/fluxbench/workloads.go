package main

import (
	"math"

	flux "repro"
)

// nominalSeconds is the -seconds value the round budgets below are sized
// for; it equals run_seconds in BENCHMARK.json. Budgets scale linearly with
// -seconds so the work done is a pure function of (workload, seed, seconds):
// that is what makes uplink, score and every count metric repeat exactly.
const nominalSeconds = 20

// warmupRounds are excluded from the round-time statistics: the first rounds
// grow worker scratch, workspaces and the heap to their steady-state size.
const warmupRounds = 3

// defaultPretrainSteps is the base-model pre-training budget of every
// workload. Setup cost is linear in it (≈20 ms/step llama, ≈35 ms/step
// deepseek on the reference box). Many short cold setups read steadier than
// few long ones — the machine's speed drifts within a second, and a setup is
// calibrated only at its two ends — so the budget is small and -setups large.
const defaultPretrainSteps = 24

// workload is one fixed configuration of the system under test. Everything
// except the seed is constant; the program under test only ever sees the
// options generated here.
type workload struct {
	Name string
	Why  string
	// Rounds is the federated round budget at nominalSeconds.
	Rounds int

	method, model, dataset string
	participants           int
	batch, iters           int
	evalSubset             int
	workers                int // 0 = GOMAXPROCS
	tcp                    bool
	fleetK                 int // >0: longtail fleet, uniform selector of this cohort size
	agg                    flux.AggregationSpec
}

// workloads are closed-loop: the engine starts round r+1 when round r has
// been evaluated. Load comes from the one process, pool width GOMAXPROCS
// unless the workload pins it.
var workloads = []workload{
	{
		Name:   "flux-sync",
		Why:    "The paper's headline path at shipped defaults: every FLUX layer plus the serial per-round evaluation, participants fanned over the worker pool.",
		Rounds: 63,
		method: "flux", model: "llama", dataset: "gsm8k",
		participants: 10, batch: 6, iters: 2, evalSubset: 16,
	},
	{
		Name:   "flux-serial",
		Why:    "Same task with one worker: isolates one participant's matmul chain and gives pool scaling against flux-sync; a pool-only change must not move it.",
		Rounds: 63,
		method: "flux", model: "llama", dataset: "gsm8k",
		participants: 10, batch: 6, iters: 2, evalSubset: 16,
		workers: 1,
	},
	{
		Name:   "fmd-tcp",
		Why:    "Wire-dominated: fmd over loopback TCP with tiny training, so gob/checkpoint encode-send-decode does the work and profile/merge/assign/quant do nothing.",
		Rounds: 403,
		method: "fmd", model: "llama", dataset: "gsm8k",
		participants: 2, batch: 3, iters: 1, evalSubset: 2,
		tcp: true,
	},
	{
		Name:   "deepseek-fleet-async",
		Why:    "Same layers used differently: async event-driven aggregation, cohort selection on a longtail fleet, 128 experts, multiple-choice evaluation path.",
		Rounds: 63,
		method: "flux", model: "deepseek", dataset: "mmlu",
		participants: 12, batch: 6, iters: 2, evalSubset: 16,
		fleetK: 6,
		agg:    flux.AggregationSpec{Mode: flux.AggAsync, BufferK: 4, StalenessAlpha: 0.5},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// budget returns the round budget for a run of the given nominal length.
// The traced run uses half of it, twice: untraced as the reference, then
// traced. Never fewer than five timed rounds.
func (w workload) budget(seconds float64, traced bool) int {
	n := float64(w.Rounds) * seconds / nominalSeconds
	if traced {
		n /= 2
	}
	rounds := int(math.Round(n))
	if min := warmupRounds + 5; rounds < min {
		rounds = min
	}
	return rounds
}

// options generates the SDK options of one run. The seed feeds WithSeed and
// FleetSpec.Seed and nothing else. A fresh TCP transport is built per call
// because transports are single-shot.
func (w workload) options(seed string, rounds, pretrain int) []flux.Option {
	opts := []flux.Option{
		flux.WithSeed("fluxbench/" + seed),
		flux.WithMethod(w.method),
		flux.WithModel(w.model),
		flux.WithDataset(w.dataset),
		flux.WithParticipants(w.participants),
		flux.WithBatch(w.batch),
		flux.WithLocalIters(w.iters),
		flux.WithEvalSubset(w.evalSubset),
		flux.WithParallelism(w.workers),
		flux.WithPretrainSteps(pretrain),
		flux.WithRounds(rounds),
		flux.WithAggregation(w.agg),
	}
	if w.fleetK > 0 {
		opts = append(opts, flux.WithFleet(flux.FleetSpec{
			Distribution: "longtail",
			Selector:     flux.SelectorSpec{Policy: "uniform", K: w.fleetK},
			Seed:         "fluxbench-fleet/" + seed,
		}))
	}
	if w.tcp {
		opts = append(opts, flux.WithTransport(flux.TCP()))
	}
	return opts
}
