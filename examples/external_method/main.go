// Command external_method demonstrates that flux's extension surface is
// fully public: it lives in its own Go module (see go.mod's replace
// directive), implements a federated fine-tuning method against the public
// flux.Env/flux.Rounder/flux.EngineConfig types, registers it with
// flux.RegisterMethod, and runs it over both the in-process and the TCP
// transport. Its test runs the same method through the fluxtest conformance
// suite.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"

	flux "repro"
)

// fedAvg is plain FedAvg over every expert — deliberately the exact behavior
// of the TCP wire protocol (broadcast, local SGD over the round batch, upload,
// sample-count-weighted aggregation), which is what makes it wire-capable:
// fluxtest asserts its in-process and TCP executions converge bit-identically.
//
// It has the shape of every method: fan the round's cohort out over the
// worker pool, fill one SlotResult per slot, and hand the server side of the
// round — deadline, aggregation mode, traffic and census accounting, the
// round's simulated time — to env.FinishRound.
type fedAvg struct{}

func (fedAvg) Name() string { return "fedavg-lite" }

func (fedAvg) Round(env *flux.Env, round int) map[flux.Phase]float64 {
	tuning := flux.TuneAllExperts(env.Global)
	down := flux.ModelBytes(env.Global) // the broadcast every participant receives
	cohort := env.Cohort(round)
	slots := make([]flux.SlotResult, len(cohort))
	err := flux.ForEachCohort(env, cohort, func(ws *flux.Scratch, slot, i int) {
		dev := env.Devices[i]
		local := ws.LocalClone(env.Global)
		grads := ws.Grads(local)
		batch := env.Batch(i, round)
		tokens := 0
		for it := 0; it < env.Cfg.LocalIters; it++ {
			for _, s := range batch {
				seq, mask := s.FullSequence()
				local.ForwardBackwardWS(ws.Workspace(), seq, mask, grads, nil, -1)
				tokens += len(seq)
			}
			local.ApplySGD(grads, env.Cfg.LR/float64(len(batch)))
		}
		u := ws.ExtractUpdate(local, i, float64(len(env.Shards[i])), tuning)
		bytes := flux.UpdateBytes(u)
		slots[slot] = flux.SlotResult{
			Update: u, Bytes: bytes, DownBytes: down,
			Phases: map[flux.Phase]float64{
				flux.PhaseFineTuning: dev.Seconds(flux.TrainFlops(env.Global, tokens, 1.0)),
				flux.PhaseComm:       dev.UplinkSeconds(bytes) + dev.DownlinkSeconds(down),
			},
		}
	})
	if err != nil {
		return nil // canceled: the driver discards the round
	}
	return env.FinishRound(cohort, slots)
}

var (
	registerOnce sync.Once
	registerErr  error
)

// register makes the method selectable with flux.WithMethod("fedavg-lite")
// everywhere — the SDK, the experiment harness, and the CLIs.
func register() error {
	registerOnce.Do(func() {
		registerErr = flux.RegisterMethod("fedavg-lite",
			"external example: plain FedAvg over every expert",
			true, // wire-capable: the round IS the TCP protocol's exchange
			func(cfg flux.EngineConfig) flux.Rounder { return fedAvg{} })
	})
	return registerErr
}

func main() {
	if err := register(); err != nil {
		log.Fatal(err)
	}
	for _, transport := range []flux.Transport{flux.InProcess(), flux.TCP()} {
		exp, err := flux.New(
			flux.WithMethod("fedavg-lite"),
			flux.WithSeed("external"),
			flux.WithParticipants(3),
			flux.WithRounds(2),
			flux.WithBatch(3),
			flux.WithLocalIters(1),
			flux.WithDatasetSize(90),
			flux.WithEvalSubset(8),
			flux.WithPretrainSteps(60),
			flux.WithTransport(transport),
		)
		if err != nil {
			log.Fatal(err)
		}
		res, err := exp.Run(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %.4f -> %.4f over %d rounds\n",
			res.Transport, res.Baseline, res.Final, res.Rounds)
	}
}
