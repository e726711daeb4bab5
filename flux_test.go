package flux

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
)

// quickOpts is a small-but-real configuration shared by the SDK tests: a
// 3-participant fleet on the reduced LLaMA-MoE with a short pre-training
// phase (cached across tests).
func quickOpts(seed string, extra ...Option) []Option {
	opts := []Option{
		WithSeed(seed),
		WithParticipants(3),
		WithRounds(2),
		WithBatch(3),
		WithLocalIters(1),
		WithAlpha(1.0),
		WithDatasetSize(90),
		WithEvalSubset(8),
		WithPretrainSteps(60),
	}
	return append(opts, extra...)
}

func TestRunInProcessStreamsEvents(t *testing.T) {
	var seen []RoundEvent
	e, err := New(quickOpts("sdk-events",
		WithMethod("fmd"),
		WithRoundEvents(func(ev RoundEvent) { seen = append(seen, ev) }),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 2 {
		t.Fatalf("expected 2 rounds, got %d", res.Rounds)
	}
	if len(seen) != 3 || len(res.Events) != 3 { // round 0 baseline + 2 rounds
		t.Fatalf("expected 3 events, got handler=%d result=%d", len(seen), len(res.Events))
	}
	if seen[0].Round != 0 || seen[2].Round != 2 {
		t.Fatalf("event rounds wrong: %+v", seen)
	}
	for _, ev := range seen[1:] {
		if ev.UplinkBytes <= 0 {
			t.Fatalf("round %d reported no uplink bytes", ev.Round)
		}
		if ev.ExpertsTouched <= 0 {
			t.Fatalf("round %d reported no aggregated experts", ev.Round)
		}
		if ev.SimHours <= 0 {
			t.Fatalf("round %d advanced no simulated time", ev.Round)
		}
	}
	if res.Transport != "in-process" {
		t.Fatalf("transport = %q", res.Transport)
	}
	if res.Final != seen[2].Score || res.Baseline != seen[0].Score {
		t.Fatal("result scores inconsistent with events")
	}
	if _, err := e.Run(context.Background()); err == nil {
		t.Fatal("second Run on the same experiment should fail")
	}
}

// TestTransportDeterminism is the SDK's core guarantee: the same method,
// seed, and settings yield bit-identical convergence whether rounds execute
// in-process or over the real TCP wire protocol.
func TestTransportDeterminism(t *testing.T) {
	run := func(transport Transport) *Result {
		t.Helper()
		e, err := New(quickOpts("sdk-determinism",
			WithMethod("fmd"),
			WithTransport(transport),
		)...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	inproc := run(InProcess())
	tcp := run(TCP())

	if inproc.Baseline != tcp.Baseline {
		t.Fatalf("baselines differ: in-process %v vs tcp %v", inproc.Baseline, tcp.Baseline)
	}
	if inproc.Final != tcp.Final {
		t.Fatalf("final scores differ: in-process %v vs tcp %v", inproc.Final, tcp.Final)
	}
	if len(inproc.Events) != len(tcp.Events) {
		t.Fatalf("curve lengths differ: %d vs %d", len(inproc.Events), len(tcp.Events))
	}
	for i := range inproc.Events {
		if inproc.Events[i].Score != tcp.Events[i].Score {
			t.Fatalf("round %d scores differ: %v vs %v",
				inproc.Events[i].Round, inproc.Events[i].Score, tcp.Events[i].Score)
		}
	}
	// The modeled uplink bytes in-process equal the actual payload on the
	// wire: both count the FP32 parameters of the uploaded experts.
	if inproc.UplinkBytes != tcp.UplinkBytes {
		t.Fatalf("uplink bytes differ: modeled %v vs wire %v", inproc.UplinkBytes, tcp.UplinkBytes)
	}
}

func TestTCPTransportIsSingleShot(t *testing.T) {
	tr := TCP()
	e1, err := New(quickOpts("sdk-reuse", WithMethod("fmd"), WithTransport(tr))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	e2, err := New(quickOpts("sdk-reuse-2", WithMethod("fmd"), WithTransport(tr))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Run(context.Background()); err == nil {
		t.Fatal("a consumed TCP transport must refuse a second run")
	}
}

// nanPhase is a method whose every participant reports a NaN phase, which the
// server core's check rejects.
type nanPhase struct{}

func (nanPhase) Name() string { return "nan-phase" }

func (nanPhase) Round(*Env, int, []int) Participant {
	return func(s *Scratch, _, i int) SlotResult {
		s.Mark(PhaseComm)
		s.Bill(math.NaN())
		return SlotResult{Update: Update{Participant: i}}
	}
}

// TestRunCountsRejectedUpdates: a rejected slot fails Run with the server
// core's error, and Run counts it in the metrics registry.
func TestRunCountsRejectedUpdates(t *testing.T) {
	if err := RegisterMethod("nan-phase", "rejection fixture", func(EngineConfig) Rounder { return nanPhase{} }); err != nil {
		t.Fatal(err)
	}
	metrics := NewMetricsRegistry()
	e, err := New(quickOpts("sdk-reject", WithMethod("nan-phase"), WithMetrics(metrics))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "update from 0 rejected") {
		t.Fatalf("Run = %v, want participant 0's update rejected", err)
	}
	if n := metrics.Counter(obs.MetricRejectedUpdates, "").Value(); n != 1 {
		t.Errorf("%s = %v after one rejected round, want 1", obs.MetricRejectedUpdates, n)
	}
}

func TestRunTCPCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	e, err := New(quickOpts("sdk-cancel",
		WithMethod("fmd"),
		WithRounds(1000), // far more rounds than the test will allow
		WithTransport(TCP()),
		WithRoundEvents(func(ev RoundEvent) {
			if ev.Round == 1 {
				cancel() // cancel mid-deployment, after the first real round
			}
		}),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got res=%v err=%v", res, err)
	}
}

func TestRunInProcessCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	e, err := New(quickOpts("sdk-cancel-inproc",
		WithMethod("flux"),
		WithRounds(1000),
		WithRoundEvents(func(ev RoundEvent) {
			if ev.Round == 1 {
				cancel()
			}
		}),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestDescribe(t *testing.T) {
	e, err := New(quickOpts("sdk-describe", WithMethod("flux"), WithDatasetTarget())...)
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.Describe()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Participants) != 3 {
		t.Fatalf("expected 3 participants, got %d", len(d.Participants))
	}
	if d.ModelParams <= 0 || d.Metric == "" || d.Target <= 0 {
		t.Fatalf("incomplete description: %+v", d)
	}
	for _, p := range d.Participants {
		if p.Capacity <= 0 || p.Tune <= 0 || p.ShardSize <= 0 {
			t.Fatalf("participant %d has empty budgets or shard: %+v", p.Index, p)
		}
	}
}
