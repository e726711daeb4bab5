// Federated fine-tuning over real TCP, through the public SDK: the TCP
// transport starts a parameter server and one goroutine per participant in
// this process, all speaking the same TCP wire protocol cmd/fluxserver
// and cmd/fluxclient use across machines. The round loop, evaluation, and
// events are identical to the in-process transport, and so is every round,
// bit for bit, for any registered method.
package main

import (
	"context"
	"fmt"
	"log"

	flux "repro"
)

func main() {
	var baseline float64
	exp, err := flux.New(
		flux.WithMethod("fmd"), // full-model FedAvg; any registered method runs over TCP
		flux.WithTransport(flux.TCP()),
		flux.WithDataset("piqa"),
		flux.WithSeed("tcp-example"),
		flux.WithParticipants(3),
		flux.WithRounds(6),
		flux.WithDatasetSize(120),
		flux.WithPretrainSteps(250),
		flux.WithRoundEvents(func(ev flux.RoundEvent) {
			if ev.Round == 0 {
				baseline = ev.Score
				return
			}
			fmt.Printf("  round %d: score=%.3f, %0.f update bytes on the wire (%.1fs elapsed)\n",
				ev.Round, ev.Score, ev.UplinkBytes, ev.Elapsed.Seconds())
		}),
	)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("running 6 federated rounds over loopback TCP...")
	res, err := exp.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nheld-out score: %.3f -> %.3f after %d TCP federated rounds (%.0f total update bytes)\n",
		baseline, res.Final, res.Rounds, res.UplinkBytes)
}
