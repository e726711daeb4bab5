package main

import (
	"context"
	"testing"

	flux "repro"
	"repro/fluxtest"
)

// TestFedAvgLiteConformance runs the out-of-module method through the
// conformance suite, which executes it on both the in-process and the TCP
// transport and requires bit-identical rounds — the acceptance bar for a
// public-API method.
func TestFedAvgLiteConformance(t *testing.T) {
	if err := register(); err != nil {
		t.Fatal(err)
	}
	fluxtest.TestRounder(t, fluxtest.RounderSpec{
		Name:       "fedavg-lite",
		New:        func(cfg flux.EngineConfig) flux.Rounder { return fedAvg{} },
		Registered: true,
	})
}

// runFedAvgLite runs the method in-process at example scale with extra
// options on top.
func runFedAvgLite(t *testing.T, opts ...flux.Option) *flux.Result {
	t.Helper()
	if err := register(); err != nil {
		t.Fatal(err)
	}
	exp, err := flux.New(append([]flux.Option{
		flux.WithMethod("fedavg-lite"),
		flux.WithSeed("external"),
		flux.WithParticipants(4),
		flux.WithRounds(2),
		flux.WithBatch(3),
		flux.WithLocalIters(1),
		flux.WithDatasetSize(90),
		flux.WithEvalSubset(8),
		flux.WithPretrainSteps(60),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFedAvgLiteHonorsFleetAndAggregation checks what leaving the round to
// env.RunRound buys a method for free: cohort selection shows up in the
// census, and the event-driven aggregation modes run without the method
// knowing they exist.
func TestFedAvgLiteHonorsFleetAndAggregation(t *testing.T) {
	sampled := runFedAvgLite(t, flux.WithSelector(flux.SelectorSpec{Policy: "uniform", K: 2}))
	for _, ev := range sampled.Events[1:] {
		if ev.Selected != 2 || ev.Completed != 2 {
			t.Errorf("round %d census selected=%d completed=%d, want the uniform K=2 cohort", ev.Round, ev.Selected, ev.Completed)
		}
		if ev.DownlinkBytes <= 0 {
			t.Errorf("round %d reported no downlink", ev.Round)
		}
	}

	async := runFedAvgLite(t, flux.WithAggregation(flux.AggregationSpec{Mode: flux.AggAsync, BufferK: 2}))
	last := 0
	for _, ev := range async.Events[1:] {
		if ev.ModelVersion <= last {
			t.Errorf("round %d model version %d did not advance past %d under async aggregation", ev.Round, ev.ModelVersion, last)
		}
		last = ev.ModelVersion
	}
}
