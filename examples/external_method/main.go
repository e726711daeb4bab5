// Command external_method demonstrates that flux's extension surface is
// fully public: it lives in its own Go module (see go.mod's replace
// directive), implements a federated fine-tuning method against the public
// flux.Env/flux.Rounder/flux.Participant/flux.EngineConfig types — a Round
// that returns a participant function — registers it with
// flux.RegisterMethod, and runs it over both the in-process and the TCP
// transport, where every participant runs the same participant function on
// its own replica of the environment. Its test runs the same method through
// the fluxtest conformance suite, which requires both transports to agree bit
// for bit.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"

	flux "repro"
)

// fedAvg is plain FedAvg over every expert: local SGD over the round batch,
// upload, sample-count-weighted aggregation.
//
// It has the shape of every method: Round prepares the round and returns the
// participant function, which fills one SlotResult per cohort member and
// bills its simulated seconds on its Scratch, marking each phase it enters
// (Mark) and billing what it prices there (Bill). The
// engine's env.RunRound owns the rest — the cohort, the worker pool, the
// update check, deadline, aggregation mode, traffic and census accounting,
// and the round's simulated time.
type fedAvg struct{}

func (fedAvg) Name() string { return "fedavg-lite" }

func (fedAvg) Round(env *flux.Env, round int, _ []int) flux.Participant {
	tuning := flux.TuneAllExperts(env.Global)
	down := flux.ModelBytes(env.Global) // the broadcast every participant receives
	return func(ws *flux.Scratch, _, i int) flux.SlotResult {
		dev := env.Devices[i]
		ws.Mark(flux.PhaseFineTuning)
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
		ws.Bill(dev.Seconds(flux.TrainFlops(env.Global, tokens, 1.0)))

		ws.Mark(flux.PhaseComm)
		u := ws.ExtractUpdate(local, i, float64(len(env.Shards[i])), tuning)
		bytes := flux.UpdateBytes(u)
		ws.Bill(dev.UplinkSeconds(bytes) + dev.DownlinkSeconds(down))
		return flux.SlotResult{Update: u, Bytes: bytes, DownBytes: down}
	}
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
