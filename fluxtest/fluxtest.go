//fluxvet:allow wallclock conformance harness: cancellation and liveness bounds are real-time test deadlines, not simulated time

// Package fluxtest is the conformance suite for flux extension points: it
// takes any Rounder constructor or Transport implementation — built-in or
// third-party — and runs it through the battery of contracts the engine
// relies on:
//
//   - determinism under a fixed seed (bit-identical convergence curves),
//   - bit-identical curves between serial (workers=1) and pooled (workers=8)
//     participant execution,
//   - the same bit-identity under buffered-async and semi-sync aggregation
//     at any worker count, plus carry-over conservation (semi-sync never
//     drops an update — late ones buffer into later rounds),
//   - byte-identical observability sinks: the trace and run-log written for
//     a run are the same bytes at any worker count and across same-seed
//     runs, with round-level span durations reproducing RoundEvent.Phases
//     exactly and a conserved participation census,
//   - context cancellation observed within a bound, including under an
//     active aggregation spec,
//   - deterministic aggregation order (socket transports must produce the
//     same floating-point accumulation regardless of connection order),
//   - a well-formed event stream (rounds strictly increasing from 0,
//     non-decreasing elapsed time, finite scores, observed traffic),
//   - for wire-capable methods, bit-exact equivalence between the
//     in-process and TCP executions, participation census included,
//   - for transports, one run-log participant record per participant per
//     round and byte-identical sinks across same-seed runs,
//   - for the Serve/Join deployment protocol, duplicate-participant
//     rejection and clean failure on misbehaving clients (TestDeployment).
//
// The repository's own methods and transports pass this suite in CI
// (fluxtest's tests); a third-party module registering a method with
// flux.RegisterMethod or implementing flux.Transport should call
// TestRounder/TestTransport from its own tests. See examples/external_method
// for a complete out-of-module method doing exactly that.
package fluxtest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	flux "repro"
	"repro/internal/obs"
)

// QuickConfig returns the small-but-real experiment configuration the suite
// drives implementations with: a 3-participant fleet on the reduced
// LLaMA-MoE with a short (cached) pre-training phase and two federated
// rounds. Exported so implementation tests can run the same workload
// outside the suite.
func QuickConfig(seed, method string) flux.Config {
	cfg := flux.DefaultConfig()
	cfg.Method = method
	cfg.Seed = seed
	cfg.Participants = 3
	cfg.Rounds = 2
	cfg.Batch = 3
	cfg.LocalIters = 1
	cfg.Alpha = 1.0
	cfg.DatasetSize = 90
	cfg.EvalSubset = 8
	cfg.PretrainSteps = 60
	return cfg
}

// defaultCancelBound is how long an implementation gets to observe a
// canceled context before the suite declares it hung.
const defaultCancelBound = 30 * time.Second

// RounderSpec describes a method implementation under conformance test.
type RounderSpec struct {
	// Name labels the implementation; for Registered specs it must be the
	// registry name.
	Name string
	// New constructs the rounder for an engine configuration — the same
	// constructor passed to flux.RegisterMethod.
	New func(cfg flux.EngineConfig) flux.Rounder
	// Registered marks Name as already present in flux.Methods(). When
	// false, the suite registers New under a fresh "fluxtest/..." name so
	// it can be driven through the full Experiment pipeline.
	Registered bool
	// Wire asserts the method's round behavior is exactly the synchronous
	// FedAvg wire exchange: the suite additionally requires bit-identical
	// convergence between the in-process and TCP transports.
	Wire bool
	// CancelBound overrides the default 30s cancellation bound.
	CancelBound time.Duration
}

var (
	regMu  sync.Mutex
	regSeq int
)

// registerFresh puts s.New into the method registry under a unique name so
// unregistered implementations can be selected with WithMethod.
func registerFresh(t *testing.T, s RounderSpec) string {
	t.Helper()
	regMu.Lock()
	regSeq++
	name := fmt.Sprintf("fluxtest/%s#%d", s.Name, regSeq)
	regMu.Unlock()
	if err := flux.RegisterMethod(name, "fluxtest conformance registration of "+s.Name, s.Wire, s.New); err != nil {
		t.Fatalf("fluxtest: registering %q: %v", name, err)
	}
	return name
}

// TestRounder runs the Rounder conformance battery against s.
func TestRounder(t *testing.T, s RounderSpec) {
	t.Helper()
	if s.Name == "" || s.New == nil {
		t.Fatal("fluxtest: RounderSpec needs Name and New")
	}
	bound := s.CancelBound
	if bound <= 0 {
		bound = defaultCancelBound
	}
	method := s.Name
	if s.Registered {
		if !methodKnown(method) {
			t.Fatalf("fluxtest: spec says %q is registered, but flux.Methods() does not list it", method)
		}
	} else {
		method = registerFresh(t, s)
	}
	cfg := QuickConfig("fluxtest/rounder/"+s.Name, method)

	t.Run("Construct", func(t *testing.T) {
		r := s.New(cfg.EngineConfig())
		if r == nil {
			t.Fatal("constructor returned a nil Rounder")
		}
		if r.Name() == "" {
			t.Error("Rounder.Name() is empty")
		}
		if a, b := r.Name(), s.New(cfg.EngineConfig()).Name(); a != b {
			t.Errorf("Rounder.Name() unstable across constructions: %q vs %q", a, b)
		}
	})

	var reference *flux.Result
	t.Run("Determinism", func(t *testing.T) {
		a := runOnce(t, cfg, nil)
		b := runOnce(t, cfg, nil)
		assertSameCurves(t, a, b, "first run", "second run")
		reference = a
	})

	t.Run("ParallelDeterminism", func(t *testing.T) {
		// The engine's parallel-execution contract: the convergence curve
		// must be bit-identical whether participants run serially
		// (workers=1) or over a saturated worker pool. A Rounder built on
		// flux.ForEachCohort passes only if it pre-splits randomness and
		// writes nothing but its own slot; env.FinishRound reduces in
		// cohort order.
		if reference == nil {
			t.Skip("no reference run (Determinism failed)")
		}
		for _, workers := range []int{1, 8} {
			wcfg := cfg
			wcfg.Workers = workers
			got := runOnce(t, wcfg, nil)
			assertSameCurves(t, reference, got, "default-workers run", fmt.Sprintf("workers=%d run", workers))
		}
	})

	t.Run("FleetDeterminism", func(t *testing.T) {
		// The fleet contract: under heterogeneous profiles, cohort
		// selection, and a drop deadline, two runs with the same seed are
		// bit-identical — including the per-round participation census —
		// and so are serial and pooled execution. A Rounder must derive
		// per-participant randomness in cohort order; the deadline and the
		// census are env.FinishRound's.
		fcfg := QuickConfig("fluxtest/fleet/"+s.Name, method)
		fcfg.Fleet = flux.FleetSpec{
			Distribution: "tiered",
			Selector:     flux.SelectorSpec{Policy: "uniform", K: 2},
			Deadline:     20000,
			Drop:         true,
			Seed:         "fluxtest",
		}
		a := runOnce(t, fcfg, nil)
		b := runOnce(t, fcfg, nil)
		assertSameCurves(t, a, b, "first fleet run", "second fleet run")
		assertSameCensus(t, a, b, "first fleet run", "second fleet run")
		for _, workers := range []int{1, 8} {
			wcfg := fcfg
			wcfg.Workers = workers
			got := runOnce(t, wcfg, nil)
			assertSameCurves(t, a, got, "default-workers fleet run", fmt.Sprintf("workers=%d fleet run", workers))
			assertSameCensus(t, a, got, "default-workers fleet run", fmt.Sprintf("workers=%d fleet run", workers))
		}
	})

	t.Run("AsyncDeterminism", func(t *testing.T) {
		// The buffered-async contract: with a heterogeneous fleet and a
		// buffer smaller than the cohort, flush order is decided by modeled
		// arrival times, never by worker scheduling — two runs, and any
		// worker count, produce bit-identical curves, census, and staleness
		// accounting. A Rounder that ignores the aggregation spec (doing its
		// own synchronous aggregation) passes as long as it is deterministic.
		acfg := QuickConfig("fluxtest/async/"+s.Name, method)
		acfg.Fleet = flux.FleetSpec{Distribution: "tiered", Seed: "fluxtest"}
		acfg.Aggregation = flux.AggregationSpec{Mode: flux.AggAsync, BufferK: 2, StalenessAlpha: 0.5}
		a := runOnce(t, acfg, nil)
		b := runOnce(t, acfg, nil)
		assertSameCurves(t, a, b, "first async run", "second async run")
		assertSameCensus(t, a, b, "first async run", "second async run")
		for _, workers := range []int{1, 8} {
			wcfg := acfg
			wcfg.Workers = workers
			got := runOnce(t, wcfg, nil)
			assertSameCurves(t, a, got, "default-workers async run", fmt.Sprintf("workers=%d async run", workers))
			assertSameCensus(t, a, got, "default-workers async run", fmt.Sprintf("workers=%d async run", workers))
		}
		assertEventStream(t, a)
	})

	t.Run("SemiSyncCarryOver", func(t *testing.T) {
		// The semi-sync contract: the round clock never drops an update —
		// every selected participant is either aggregated by the clock or
		// carried into a later round's buffer. Conservation over the run:
		// total selected == total completed + updates still buffered at the
		// end. Holds trivially (pending 0) for Rounders that ignore the
		// aggregation spec.
		scfg := QuickConfig("fluxtest/semisync/"+s.Name, method)
		scfg.Fleet = flux.FleetSpec{Distribution: "tiered", Deadline: 20000, Seed: "fluxtest"}
		scfg.Aggregation = flux.AggregationSpec{Mode: flux.AggSemiSync, StalenessAlpha: 1}
		a := runOnce(t, scfg, nil)
		b := runOnce(t, scfg, nil)
		assertSameCurves(t, a, b, "first semisync run", "second semisync run")
		assertSameCensus(t, a, b, "first semisync run", "second semisync run")
		pending := 0
		for _, ev := range a.Events {
			if ev.Dropped != 0 {
				t.Errorf("round %d dropped %d updates; semisync must never drop", ev.Round, ev.Dropped)
			}
			pending = ev.Pending
		}
		if a.Selected != a.Completed+pending {
			t.Errorf("carry-over accounting broken: %d selected != %d completed + %d still pending",
				a.Selected, a.Completed, pending)
		}
	})

	t.Run("ObservabilityDeterminism", func(t *testing.T) {
		// The observability contract: the trace and run-log sinks take every
		// timestamp from the simulated clock and serialize in a stable order,
		// so the bytes they write are identical at any worker count and
		// across same-seed runs; the trace's round-level phase spans
		// reproduce RoundEvent.Phases exactly; and the participation census
		// recorded in the round spans is conserved over the run. Runs twice:
		// once under a drop-policy fleet (straggler spans), once under
		// buffered-async aggregation (flush spans).
		ocfg := QuickConfig("fluxtest/obs/"+s.Name, method)
		ocfg.Fleet = flux.FleetSpec{Distribution: "tiered", Deadline: 20000, Drop: true, Seed: "fluxtest"}
		acfg := QuickConfig("fluxtest/obs-async/"+s.Name, method)
		acfg.Fleet = flux.FleetSpec{Distribution: "tiered", Seed: "fluxtest"}
		acfg.Aggregation = flux.AggregationSpec{Mode: flux.AggAsync, BufferK: 2, StalenessAlpha: 0.5}
		for _, c := range []struct {
			name string
			cfg  flux.Config
		}{{"fleet-drop", ocfg}, {"async", acfg}} {
			c.cfg.Workers = 1
			res, trace, runlog := runWithSinks(t, c.cfg, nil)
			for i, workers := range []int{1, 8} {
				wcfg := c.cfg
				wcfg.Workers = workers
				_, wtrace, wrunlog := runWithSinks(t, wcfg, nil)
				rerun := fmt.Sprintf("%s workers=%d run", c.name, workers)
				if i == 0 {
					rerun = c.name + " repeat serial run"
				}
				if !bytes.Equal(trace, wtrace) {
					t.Errorf("trace bytes differ between the %s reference and the %s", c.name, rerun)
				}
				if !bytes.Equal(runlog, wrunlog) {
					t.Errorf("run-log bytes differ between the %s reference and the %s", c.name, rerun)
				}
			}
			assertTraceMatchesEvents(t, trace, res)
		}
	})

	t.Run("EventStream", func(t *testing.T) {
		if reference == nil {
			t.Skip("no reference run (Determinism failed)")
		}
		assertEventStream(t, reference)
	})

	t.Run("AsyncCancellation", func(t *testing.T) {
		// Cancellation under an active aggregation spec: a pre-canceled
		// context must abandon the round before anything reaches the
		// server's buffer.
		acfg := QuickConfig("fluxtest/async-cancel/"+s.Name, method)
		acfg.Aggregation = flux.AggregationSpec{Mode: flux.AggAsync, BufferK: 2}
		env, err := flux.NewEnv(context.Background(), acfg)
		if err != nil {
			t.Fatalf("NewEnv: %v", err)
		}
		r := s.New(env.Cfg)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		env.SetContext(ctx)
		done := make(chan struct{})
		go func() {
			defer close(done)
			r.Round(env, 0)
		}()
		select {
		case <-done:
		case <-time.After(bound):
			t.Fatalf("Round did not observe the canceled context within %v", bound)
		}
		if obs := env.TakeRoundObs(); obs.ExpertsTouched != 0 || obs.Pending != 0 {
			t.Errorf("Round aggregated %d experts and buffered %d updates despite a pre-canceled context",
				obs.ExpertsTouched, obs.Pending)
		}
	})

	t.Run("Cancellation", func(t *testing.T) {
		env, err := flux.NewEnv(context.Background(), cfg)
		if err != nil {
			t.Fatalf("NewEnv: %v", err)
		}
		r := s.New(env.Cfg)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		env.SetContext(ctx)
		done := make(chan struct{})
		go func() {
			defer close(done)
			r.Round(env, 0)
		}()
		select {
		case <-done:
		case <-time.After(bound):
			t.Fatalf("Round did not observe the canceled context within %v", bound)
		}
		if obs := env.TakeRoundObs(); obs.ExpertsTouched != 0 {
			t.Errorf("Round aggregated %d experts despite a pre-canceled context", obs.ExpertsTouched)
		}
	})

	if s.Wire {
		t.Run("WireEquivalence", func(t *testing.T) {
			if reference == nil {
				reference = runOnce(t, cfg, nil)
			}
			tcp := runOnce(t, cfg, flux.TCP())
			assertSameCurves(t, reference, tcp, "in-process", "tcp")
			assertSameCensus(t, reference, tcp, "in-process", "tcp")
		})
	}
}

// TransportSpec describes a Transport implementation under conformance test.
type TransportSpec struct {
	// Name labels the implementation in failure messages.
	Name string
	// New returns a fresh transport; the suite never reuses one across
	// runs, so single-shot transports (like the built-in TCP) conform.
	New func() flux.Transport
	// Method is the registered, wire-capable method the suite drives the
	// transport with; empty means "fmd".
	Method string
	// CancelBound overrides the default 30s cancellation bound.
	CancelBound time.Duration
}

// TestTransport runs the Transport conformance battery against s.
func TestTransport(t *testing.T, s TransportSpec) {
	t.Helper()
	if s.New == nil {
		t.Fatal("fluxtest: TransportSpec needs New")
	}
	method := s.Method
	if method == "" {
		method = "fmd"
	}
	bound := s.CancelBound
	if bound <= 0 {
		bound = defaultCancelBound
	}
	cfg := QuickConfig("fluxtest/transport/"+s.Name, method)

	t.Run("Lifecycle", func(t *testing.T) {
		tr := s.New()
		if tr == nil {
			t.Fatal("New returned a nil Transport")
		}
		if tr.Name() == "" {
			t.Error("Transport.Name() is empty")
		}
		if _, err := tr.Round(context.Background(), 0); err == nil {
			t.Error("Round before Start must return an error")
		}
		// Close must be safe before Start and repeatable.
		tr.Close()
		tr.Close()
	})

	var reference *flux.Result
	t.Run("Determinism", func(t *testing.T) {
		// Two independent executions must match bit-for-bit. For socket
		// transports this also pins deterministic aggregation order:
		// participants connect in scheduler-dependent order, so only an
		// implementation that orders aggregation by participant id can
		// reproduce the same floating-point accumulation twice.
		a := runOnce(t, cfg, s.New())
		b := runOnce(t, cfg, s.New())
		assertSameCurves(t, a, b, "first run", "second run")
		reference = a
	})

	t.Run("InProcessEquivalence", func(t *testing.T) {
		if reference == nil {
			reference = runOnce(t, cfg, s.New())
		}
		ref := runOnce(t, cfg, nil)
		assertSameCurves(t, ref, reference, "in-process", s.Name)
		assertSameCensus(t, ref, reference, "in-process", s.Name)
	})

	t.Run("ObservabilityDeterminism", func(t *testing.T) {
		// Participant records come from the round core on every transport:
		// the run log carries exactly one per participant per round, and both
		// sinks are the same bytes across two same-seed runs — over a socket
		// too, where connection order is up to the scheduler.
		res, trace, runlog := runWithSinks(t, cfg, s.New())
		_, trace2, runlog2 := runWithSinks(t, cfg, s.New())
		if !bytes.Equal(trace, trace2) {
			t.Error("trace bytes differ between two same-seed runs")
		}
		if !bytes.Equal(runlog, runlog2) {
			t.Error("run-log bytes differ between two same-seed runs")
		}
		for r := 1; r <= res.Rounds; r++ {
			for p := 0; p < cfg.Participants; p++ {
				rec := fmt.Sprintf(`{"type":"participant","round":%d,"participant":%d,`, r, p)
				if n := bytes.Count(runlog, []byte(rec)); n != 1 {
					t.Errorf("run log has %d participant records for round %d participant %d, want 1", n, r, p)
				}
			}
		}
		if n, want := bytes.Count(runlog, []byte(`"type":"participant"`)), res.Rounds*cfg.Participants; n != want {
			t.Errorf("run log has %d participant records, want %d (one per participant per round)", n, want)
		}
	})

	t.Run("EventStream", func(t *testing.T) {
		if reference == nil {
			t.Skip("no reference run (Determinism failed)")
		}
		assertEventStream(t, reference)
	})

	t.Run("Census", func(t *testing.T) {
		// Every transport must report a participation census. Without a
		// fleet spec all participants run and complete each round, so both
		// counts equal the fleet size — over the built-in TCP the cohort is
		// the connected peers. Downlink traffic must be
		// observed too (modeled in-process, actual wire bytes over TCP).
		if reference == nil {
			t.Skip("no reference run (Determinism failed)")
		}
		for _, ev := range reference.Events[1:] {
			if ev.Selected != cfg.Participants || ev.Completed != cfg.Participants || ev.Dropped != 0 {
				t.Errorf("round %d: census %d selected / %d completed / %d dropped, want %d/%d/0",
					ev.Round, ev.Selected, ev.Completed, ev.Dropped, cfg.Participants, cfg.Participants)
			}
			if ev.DownlinkBytes <= 0 {
				t.Errorf("round %d observed no downlink traffic", ev.Round)
			}
		}
	})

	t.Run("Cancellation", func(t *testing.T) {
		cancelCfg := cfg
		cancelCfg.Seed = cfg.Seed + "/cancel"
		cancelCfg.Rounds = 1000 // far more rounds than the bound allows
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		e, err := flux.New(
			flux.WithConfig(cancelCfg),
			flux.WithTransport(s.New()),
			flux.WithRoundEvents(func(ev flux.RoundEvent) {
				if ev.Round == 1 {
					cancel()
				}
			}),
		)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := e.Run(ctx)
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Run after mid-deployment cancel: want context.Canceled, got %v", err)
			}
		case <-time.After(bound):
			t.Fatalf("Run did not return within %v of cancellation", bound)
		}
	})
}

func methodKnown(name string) bool {
	for _, m := range flux.Methods() {
		if m.Name == name {
			return true
		}
	}
	return false
}

// runWithSinks executes one experiment on the given transport (nil means the
// in-process default) with the trace and run-log sinks attached and returns
// the result alongside the raw sink bytes.
func runWithSinks(t *testing.T, cfg flux.Config, tr flux.Transport) (*flux.Result, []byte, []byte) {
	t.Helper()
	var trace, runlog bytes.Buffer
	e, err := flux.New(flux.WithConfig(cfg), flux.WithTransport(tr), flux.WithTrace(&trace), flux.WithRunLog(&runlog))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res, trace.Bytes(), runlog.Bytes()
}

// assertTraceMatchesEvents cross-checks a trace against the run's event
// stream: every round-level phase span's duration must equal the matching
// RoundEvent.Phases entry exactly (µs = seconds × 1e6, the same float64
// arithmetic on both sides), every phase of the event must appear as a span,
// and the participation census in the round spans' args must be conserved
// over the run: selected == completed + dropped + still pending at the end.
func assertTraceMatchesEvents(t *testing.T, trace []byte, res *flux.Result) {
	t.Helper()
	events, err := obs.ParseTrace(bytes.NewReader(trace))
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	byRound := make(map[int]flux.RoundEvent, len(res.Events))
	for _, ev := range res.Events {
		byRound[ev.Round] = ev
	}
	arg := func(ev obs.TraceEvent, key string) float64 {
		v, _ := ev.Args[key].(float64)
		return v
	}
	round := -1 // the round span currently open, in emission order
	spans := 0  // phase spans seen under it
	var selected, completed, dropped, pending float64
	checkSpanCount := func() {
		if round < 0 {
			return
		}
		if want := len(byRound[round].Phases); spans != want {
			t.Errorf("round %d: %d phase spans in the trace, want %d (one per RoundEvent phase)", round, spans, want)
		}
	}
	for _, ev := range events {
		if ev.Ph != "X" {
			continue
		}
		switch ev.Cat {
		case "round":
			checkSpanCount()
			if _, err := fmt.Sscanf(ev.Name, "round %d", &round); err != nil {
				t.Fatalf("unparseable round span name %q", ev.Name)
			}
			if _, ok := byRound[round]; !ok {
				t.Fatalf("trace has a span for round %d, but the run emitted no such event", round)
			}
			spans = 0
			selected += arg(ev, "selected")
			completed += arg(ev, "completed")
			dropped += arg(ev, "dropped")
			pending = arg(ev, "pending")
		case "phase":
			if ev.Pid != 0 || ev.Tid != 0 {
				continue // participant-lane phase span, not a round-level one
			}
			if round < 0 {
				t.Fatalf("phase span %q before any round span", ev.Name)
			}
			spans++
			if want := byRound[round].Phases[ev.Name] * 1e6; ev.Dur != want {
				t.Errorf("round %d phase %q: span duration %v µs, want exactly %v (RoundEvent.Phases × 1e6)",
					round, ev.Name, ev.Dur, want)
			}
		}
	}
	checkSpanCount()
	if round < 0 {
		t.Fatal("trace contains no round spans")
	}
	if selected != completed+dropped+pending {
		t.Errorf("census not conserved over the trace: %v selected != %v completed + %v dropped + %v pending",
			selected, completed, dropped, pending)
	}
}

// runOnce executes one experiment with the given transport (nil means the
// in-process default) and fails the test on any error.
func runOnce(t *testing.T, cfg flux.Config, tr flux.Transport) *flux.Result {
	t.Helper()
	opts := []flux.Option{flux.WithConfig(cfg)}
	if tr != nil {
		opts = append(opts, flux.WithTransport(tr))
	}
	e, err := flux.New(opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// assertSameCurves requires two results to carry bit-identical convergence:
// same curve length, per-round scores, uplink traffic, and aggregated
// expert counts.
func assertSameCurves(t *testing.T, a, b *flux.Result, aName, bName string) {
	t.Helper()
	if a == nil || b == nil {
		t.Fatal("missing result")
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("curve lengths differ: %s has %d events, %s has %d", aName, len(a.Events), bName, len(b.Events))
	}
	for i := range a.Events {
		ea, eb := a.Events[i], b.Events[i]
		if ea.Round != eb.Round {
			t.Fatalf("event %d: rounds differ (%d vs %d)", i, ea.Round, eb.Round)
		}
		if ea.Score != eb.Score {
			t.Fatalf("round %d: scores differ: %s=%v %s=%v", ea.Round, aName, ea.Score, bName, eb.Score)
		}
		if ea.UplinkBytes != eb.UplinkBytes {
			t.Fatalf("round %d: uplink bytes differ: %s=%v %s=%v", ea.Round, aName, ea.UplinkBytes, bName, eb.UplinkBytes)
		}
		if ea.ExpertsTouched != eb.ExpertsTouched {
			t.Fatalf("round %d: aggregated expert counts differ: %s=%d %s=%d", ea.Round, aName, ea.ExpertsTouched, bName, eb.ExpertsTouched)
		}
	}
	if a.Final != b.Final || a.Baseline != b.Baseline {
		t.Fatalf("summary scores differ: %s final=%v baseline=%v, %s final=%v baseline=%v",
			aName, a.Final, a.Baseline, bName, b.Final, b.Baseline)
	}
}

// assertSameCensus requires two results to agree on the per-round
// participation census (cohort selected / completed within deadline) and the
// event-driven aggregation accounting (model version, stale merges, carry-over
// buffer size). Both built-in transports report what Env.FinishRound counted,
// so the in-process and TCP runs of one configuration agree on it.
func assertSameCensus(t *testing.T, a, b *flux.Result, aName, bName string) {
	t.Helper()
	for i := range a.Events {
		ea, eb := a.Events[i], b.Events[i]
		if ea.Selected != eb.Selected || ea.Completed != eb.Completed || ea.Dropped != eb.Dropped {
			t.Fatalf("round %d: participation census differs: %s=%d/%d/%d %s=%d/%d/%d",
				ea.Round, aName, ea.Selected, ea.Completed, ea.Dropped,
				bName, eb.Selected, eb.Completed, eb.Dropped)
		}
		if ea.ModelVersion != eb.ModelVersion || ea.Stale != eb.Stale || ea.Pending != eb.Pending {
			t.Fatalf("round %d: aggregation accounting differs: %s v=%d stale=%d pending=%d, %s v=%d stale=%d pending=%d",
				ea.Round, aName, ea.ModelVersion, ea.Stale, ea.Pending,
				bName, eb.ModelVersion, eb.Stale, eb.Pending)
		}
	}
}

// assertEventStream requires a well-formed event stream: the baseline
// evaluation first, rounds increasing by exactly one, non-decreasing
// elapsed time, finite scores, and observed traffic on every real round.
func assertEventStream(t *testing.T, res *flux.Result) {
	t.Helper()
	if len(res.Events) == 0 {
		t.Fatal("no events emitted")
	}
	if res.Events[0].Round != 0 {
		t.Fatalf("first event is round %d, want the round-0 baseline", res.Events[0].Round)
	}
	prev := res.Events[0]
	if !isFinite(prev.Score) {
		t.Fatalf("round 0 score %v is not finite", prev.Score)
	}
	for _, ev := range res.Events[1:] {
		if ev.Round != prev.Round+1 {
			t.Fatalf("round numbers not monotone: %d after %d", ev.Round, prev.Round)
		}
		if ev.Elapsed < prev.Elapsed {
			t.Fatalf("elapsed time went backwards at round %d: %v after %v", ev.Round, ev.Elapsed, prev.Elapsed)
		}
		if !isFinite(ev.Score) {
			t.Fatalf("round %d score %v is not finite", ev.Round, ev.Score)
		}
		if ev.UplinkBytes <= 0 {
			t.Fatalf("round %d observed no uplink traffic", ev.Round)
		}
		if ev.ExpertsTouched <= 0 {
			t.Fatalf("round %d aggregated no experts", ev.Round)
		}
		prev = ev
	}
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
