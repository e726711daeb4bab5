package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	flux "repro"
)

// runConfig is one child run: one workload, traced or not.
type runConfig struct {
	w        workload
	seed     string
	seconds  float64
	traced   bool
	rounds   int // 0: from seconds
	pretrain int
	setups   int // cold setups timed per untraced run
}

// workers is how many cores the workload keeps busy at once.
func (rc runConfig) workers() int {
	if rc.w.workers > 0 {
		return rc.w.workers
	}
	return runtime.GOMAXPROCS(0)
}

func (rc runConfig) budget() int {
	if rc.rounds > 0 {
		return rc.rounds
	}
	return rc.w.budget(rc.seconds, rc.traced)
}

// check is one correctness assertion on a run's output.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// value is one reported number in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one child run produced; -out writes it as JSON.
type report struct {
	Context   machineContext   `json:"context"`
	Workload  string           `json:"workload"`
	Traced    bool             `json:"traced"`
	Rounds    int              `json:"rounds"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"ops_attempted"`
	Failed    int              `json:"ops_failed"`
	Checks    []check          `json:"checks"`
	Metrics   map[string]value `json:"metrics"`
	Samples   map[string]int   `json:"samples"`
	Digest    string           `json:"digest"`
	// Periods are the timed rounds' raw wall times in ms (untraced run), in
	// round order, Calib the calibration sample taken at every event (see
	// calib.go) and Setups the cold setups as timed, for anyone who wants
	// another statistic than the printed.
	Periods []float64 `json:"round_periods_ms,omitempty"`
	Calib   []float64 `json:"calib_ms,omitempty"`
	Setups  []timing  `json:"setups,omitempty"`
	Spans   []span    `json:"spans,omitempty"`
}

// observed is one Experiment.Run as seen from outside the SDK.
type observed struct {
	res    *flux.Result
	err    error
	events []flux.RoundEvent // meter.events, for short
	meter  *speedMeter
	wall   float64 // seconds in Run
	cpu    float64 // CPU seconds consumed during Run
	mem    runtime.MemStats
	memEnd runtime.MemStats
}

// execute runs a materialized experiment; the caller wired meter.onEvent in
// as a RoundEvent handler when it built exp.
func execute(exp *flux.Experiment, meter *speedMeter) observed {
	o := observed{meter: meter}
	runtime.ReadMemStats(&o.mem)
	cpu0, t0 := cpuSeconds(), time.Now()
	o.res, o.err = exp.Run(context.Background())
	o.wall = time.Since(t0).Seconds()
	o.cpu = cpuSeconds() - cpu0
	runtime.ReadMemStats(&o.memEnd)
	o.events = meter.events
	return o
}

// materialize builds an experiment and forces environment construction
// (dataset synthesis, non-IID partition, base-model pre-training), returning
// how long that took.
func materialize(cal *calibrator, opts []flux.Option) (exp *flux.Experiment, took timing, err error) {
	took, err = cal.around(func() error {
		if exp, err = flux.New(opts...); err != nil {
			return err
		}
		_, err = exp.Describe()
		return err
	})
	return exp, took, err
}

// digest fingerprints a run's convergence: per-round score, simulated hours
// and uplink bytes, bit for bit. Two runs of one configuration must agree.
func digest(events []flux.RoundEvent) string {
	var b strings.Builder
	for _, ev := range events {
		fmt.Fprintf(&b, "%d %016x %016x %016x\n", ev.Round,
			math.Float64bits(ev.Score), math.Float64bits(ev.SimHours), math.Float64bits(ev.UplinkBytes))
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
}

// verify is the correctness gate on one completed run.
func verify(o observed, budget int) []check {
	if o.err != nil {
		return []check{{Name: "run", Detail: o.err.Error()}}
	}
	res := o.res
	checks := []check{{Name: "run", OK: true}}
	add := func(name string, ok bool, format string, args ...any) {
		c := check{Name: name, OK: ok}
		if !ok {
			c.Detail = fmt.Sprintf(format, args...)
		}
		checks = append(checks, c)
	}
	add("rounds", res.Rounds == budget && len(o.events) == budget+1,
		"ran %d rounds, saw %d events, budget %d", res.Rounds, len(o.events), budget)
	pending := 0
	if n := len(o.events); n > 0 {
		pending = o.events[n-1].Pending
	}
	add("census", res.Selected == res.Completed+res.Dropped+pending,
		"selected %d != completed %d + dropped %d + pending %d", res.Selected, res.Completed, res.Dropped, pending)
	scoresOK, versionOK, version := true, true, 0
	for _, ev := range o.events {
		if math.IsNaN(ev.Score) || ev.Score < 0 || ev.Score > 1 {
			scoresOK = false
		}
		if ev.ModelVersion < version {
			versionOK = false
		}
		version = ev.ModelVersion
	}
	add("scores", scoresOK && res.Best >= 0 && res.Best <= 1, "a score is outside [0,1] or not finite")
	add("version", versionOK, "model version went backwards")
	add("uplink", res.UplinkBytes > 0 && !math.IsInf(res.UplinkBytes, 0), "uplink bytes %v", res.UplinkBytes)
	return checks
}

// runOne performs one child run and fills in its report.
func runOne(rc runConfig) *report {
	budget := rc.budget()
	ctx := newMachineContext(rc.seed, rc.seconds, rc.pretrain)
	ctx.Budgets[rc.w.Name] = budget
	rep := &report{Context: ctx, Workload: rc.w.Name, Traced: rc.traced, Rounds: budget}
	// One operation is one federated round; over TCP each participant's
	// join is one more.
	rep.Attempted = budget
	if rc.w.tcp {
		rep.Attempted += rc.w.participants
	}

	ms := newMetricSet()
	var checks []check
	var err error
	if rc.traced {
		checks, err = runTraced(rc, budget, rep, ms)
	} else {
		checks, err = runUntraced(rc, budget, rep, ms)
	}
	if err != nil {
		checks = append(checks, check{Name: "setup", Detail: err.Error()})
	}
	rep.Checks = checks
	rep.Correct = true
	for _, c := range checks {
		if !c.OK {
			rep.Correct = false
		}
	}
	if !rep.Correct {
		// A run whose output cannot be trusted completed no operation.
		rep.Failed = rep.Attempted
	}

	defs := endToEndMetrics
	if rc.traced {
		defs = perLayerMetrics
	}
	rep.Metrics = make(map[string]value, len(defs))
	rep.Samples = ms.samples
	for _, d := range defs {
		v := ms.values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		rep.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return rep
}

// runUntraced measures the end-to-end metrics through the public SDK only.
func runUntraced(rc runConfig, budget int, rep *report, ms *metricSet) ([]check, error) {
	setupCal := newCalibrator(1) // setup runs on one core
	meter := newSpeedMeter(newCalibrator(rc.workers()))
	var exp *flux.Experiment
	var setups []float64
	for i := 0; i < rc.setups; i++ {
		// Every setup is cold: the process-wide base-model cache is the one
		// thing a second flux.New would otherwise reuse.
		resetBaseModelCache()
		exp = nil
		runtime.GC() // the previous setup is this loop's garbage, not the workload's
		e, took, err := materialize(setupCal, append(rc.w.options(rc.seed, budget, rc.pretrain),
			flux.WithRoundEvents(meter.onEvent)))
		if err != nil {
			return nil, err
		}
		exp, setups = e, append(setups, took.seconds())
		rep.Setups = append(rep.Setups, took)
	}
	o := execute(exp, meter)
	checks := verify(o, budget)
	rep.Digest = digest(o.events)
	if o.err != nil {
		return checks, nil
	}
	ms.setN("setup_s", median(setups), len(setups))
	raw, periods := meter.timedPeriodsMS()
	rep.Periods, rep.Calib = raw, meter.samples
	n := len(periods)
	ms.setN("rounds_per_s", 1e3/mean(periods), n)
	ms.setN("round_ms_p50", median(periods), n)
	p90, _ := percentile(periods, 90)
	ms.setN("round_ms_p90", p90, n)
	ms.set("peak_rss_mb", peakRSSMB())
	ms.set("uplink_mb_per_round", o.res.UplinkBytes/float64(o.res.Rounds)/1e6)
	return checks, nil
}

// runTraced runs the workload twice at the traced budget — untraced as the
// reference, then under the traced transport — and derives the per-layer
// metrics. The two convergence digests must be equal: that is the proof the
// replay probes have no side effects.
func runTraced(rc runConfig, budget int, rep *report, ms *metricSet) ([]check, error) {
	setupCal, cal := newCalibrator(1), newCalibrator(rc.workers()) // setup runs on one core
	// Reference run, with setup split into pre-training and the rest.
	refMeter := newSpeedMeter(cal)
	refOpts := append(rc.w.options(rc.seed, budget, rc.pretrain), flux.WithRoundEvents(refMeter.onEvent))
	probe, err := flux.New(refOpts...)
	if err != nil {
		return nil, err
	}
	resetBaseModelCache()
	pretrain, err := setupCal.around(func() error { return pretrainBaseModel(probe.Config()) })
	if err != nil {
		return nil, err
	}
	ms.set("setup.pretrain_s", pretrain.seconds())
	refExp, envBuild, err := materialize(setupCal, refOpts)
	if err != nil {
		return nil, err
	}
	ms.set("setup.env_s", envBuild.seconds())
	ref := execute(refExp, refMeter)
	checks := verify(ref, budget)
	if ref.err != nil {
		return checks, nil
	}

	// Traced run: same options, transport wrapped. The wrapper's event
	// handler closes the round span and then hands the event to its meter.
	inner := flux.InProcess()
	if rc.w.tcp {
		inner = flux.TCP()
	}
	wrapped := newTraced(inner, newTracer(), newProber(rc.seed), newSpeedMeter(cal))
	exp, _, err := materialize(setupCal, append(rc.w.options(rc.seed, budget, rc.pretrain),
		flux.WithTransport(wrapped), flux.WithRoundEvents(wrapped.onEvent)))
	if err != nil {
		return checks, err
	}
	o := execute(exp, wrapped.meter)
	for _, c := range verify(o, budget) {
		c.Name = "traced." + c.Name
		checks = append(checks, c)
	}
	fillSelf(wrapped.tr.spans)
	rep.Spans, rep.Calib = wrapped.tr.spans, wrapped.meter.samples
	rep.Digest = digest(o.events)
	refDigest := digest(ref.events)
	same := check{Name: "digest", OK: o.err == nil && rep.Digest == refDigest}
	if !same.OK {
		same.Detail = fmt.Sprintf("traced run's convergence digest %.12s differs from the untraced run's %.12s", rep.Digest, refDigest)
	}
	checks = append(checks, same)
	if o.err != nil {
		return checks, nil
	}
	layerMetrics(ms, wrapped, ref, o)
	return checks, nil
}

// layerMetrics turns the traced run's spans and counts, plus the reference
// run's runtime statistics, into the per-layer metrics. Every duration is
// read at reference speed, scaled by its round's calibration factor.
func layerMetrics(ms *metricSet, t *traced, ref, o observed) {
	spans, pr := t.tr.spans, t.pr
	// weight[id] is the factor that reads span id's wall time at reference
	// speed; 0 for a span outside the timed rounds. Spans are appended when
	// they begin, so a parent's entry is filled before its children's.
	weight := make([]float64, len(spans))
	for id, s := range spans {
		switch {
		case s.Name == "round":
			if r := t.roundOf[id]; r >= warmupRounds {
				weight[id] = t.meter.factor(r + 1)
			}
		case s.Parent >= 0:
			weight[id] = weight[s.Parent]
		}
	}
	// ms1 sets metric to the median duration (ms × scale) of the named span
	// over the timed rounds; 0 when the workload never executes that layer.
	ms1 := func(metric, name string, scale float64) float64 {
		v, n := percentile(durationsMS(spans, name, weight), 50)
		ms.setN(metric, v*scale, n)
		return v
	}
	timedCounts := func(xs []float64) []float64 {
		if len(xs) <= warmupRounds {
			return nil
		}
		return xs[warmupRounds:]
	}

	// Per-round ladder: period (replay removed) = transport + evaluate + SDK.
	var periods, overheads []float64
	for id, s := range spans {
		if s.Name != "round" || weight[id] == 0 {
			continue
		}
		var replay, transport, eval int64
		for _, c := range children(spans, id) {
			switch c.Name {
			case "replay":
				replay = c.dur()
				for _, g := range children(spans, c.ID) {
					if g.Name == "eval.evaluate" {
						eval = g.dur()
					}
				}
			case "transport.round":
				transport = c.dur()
			}
		}
		period := s.dur() - replay
		periods = append(periods, weight[id]*float64(period)/1e6)
		overheads = append(overheads, weight[id]*float64(period-transport-eval)/1e6)
	}
	period := median(periods)

	ms1("tensor.matmul_model_us", "tensor.matmul", 1e3)
	ms1("quant.roundtrip_us", "quant.roundtrip", 1e3)
	ms1("moe.fwdbwd_ms", "moe.fwdbwd", 1)
	ms1("moe.fwd_ms", "moe.fwd", 1)
	ms1("moe.sgd_ms", "moe.sgd", 1)
	ms1("moe.clone_ms", "moe.clone", 1)
	ms1("moe.quantize_ms", "moe.quantize", 1)
	ms1("moe.customize_ms", "moe.customize", 1)
	encode := ms1("moe.encode_ms", "moe.encode", 1)
	ms1("moe.decode_ms", "moe.decode", 1)
	ms1("profile.run_ms", "profile.run", 1)
	ms1("merge.plan_ms", "merge.plan", 1)
	ms1("assign.assign_us", "assign.assign", 1e3)
	ms1("assign.spsa_ms", "assign.spsa", 1)
	transport := ms1("fed.transport_round_ms", "transport.round", 1)
	participant := ms1("fed.participant_ms", "participant", 1)
	ms1("fed.extract_us", "fed.extract", 1e3)
	aggregate := ms1("fed.aggregate_ms", "fed.aggregate", 1)
	ms1("fed.wire_model_ms", "fed.wire_model", 1)
	ms1("fed.wire_update_ms", "fed.wire_update", 1)
	cohortMS := ms1("fleet.cohort_us", "fleet.cohort", 1e3)
	eval := ms1("eval.evaluate_ms", "eval.evaluate", 1)
	ms1("data.batch_us", "data.batch", 1e3)
	ms1("obs.endround_us", "obs.endround", 1e3)

	ms.set("moe.fwdbwd_calls_per_round", median(timedCounts(pr.fwdbwdCalls)))
	ms.set("assign.explore_per_participant", median(timedCounts(pr.explore)))
	if trainMS := sum(durationsMS(spans, "moe.fwdbwd", weight)); trainMS > 0 {
		ms.set("moe.train_tokens_per_s", sum(timedCounts(pr.trainTokens))/(trainMS/1e3))
	}

	// Pool rung: cohort-many participants over the workers running at once.
	cohort, workers := median(timedCounts(pr.cohortSizes)), median(timedCounts(pr.workerCnt))
	pool := 0.0
	if workers > 0 {
		pool = cohort * participant / workers
	}
	if transport > 0 {
		ms.set("fed.pool_efficiency", pool/transport)
	}
	if pr.wire && len(periods) > 0 {
		// What the round costs beyond local training and FedAvg: model and
		// update (de)serialisation plus the socket.
		var train float64
		for _, name := range []string{"moe.fwdbwd", "moe.sgd", "fed.extract"} {
			train += sum(durationsMS(spans, name, weight))
		}
		ms.set("fed.wire_ms_per_round", transport-train/float64(len(periods))-aggregate)
	}
	ms.set("fed.wire_down_mb_per_round", median(timedCounts(pr.wireDownMB)))
	ms.set("fed.wire_up_mb_per_round", median(timedCounts(pr.wireUpMB)))

	rounds := float64(o.res.Rounds)
	ms.set("fed.versions_per_round", float64(o.res.ModelVersion)/rounds)
	ms.set("fed.stale_per_round", float64(o.res.Stale)/rounds)
	var pending []float64
	for _, ev := range o.events {
		pending = append(pending, float64(ev.Pending))
	}
	ms.set("fed.pending_max", maxOf(pending))
	if pr.env.Cfg.Fleet.Active() {
		ms.set("fleet.selected_per_round", float64(o.res.Selected)/rounds)
		ms.set("fleet.dropped_per_round", float64(o.res.Dropped)/rounds)
	}
	ms.set("simtime.sim_hours", o.res.SimHours)
	ms.set("best_score", o.res.Best)

	if period > 0 {
		ms.set("eval.share_pct", 100*eval/period)
		// Rungs below the round: evaluation, the participant pool, and the
		// server's serial work. What they do not cover is unattributed.
		attributed := eval + pool + aggregate + encode + cohortMS
		ms.setN("sdk.unattributed_pct", 100*(period-attributed)/period, len(periods))
	}
	ms.setN("sdk.round_overhead_ms", median(overheads), len(overheads))

	// Reference (untraced) run: warm-up, runtime cost per round, overhead.
	var warmup float64
	for r := 1; r <= warmupRounds && r < len(ref.events); r++ {
		_, p := ref.meter.periodMS(r)
		warmup += p
	}
	ms.set("sdk.warmup_ms", warmup)
	refRounds := float64(ref.res.Rounds)
	ms.set("rt.alloc_mb_per_round", float64(ref.memEnd.TotalAlloc-ref.mem.TotalAlloc)/refRounds/1e6)
	ms.set("rt.allocs_per_round", float64(ref.memEnd.Mallocs-ref.mem.Mallocs)/refRounds)
	ms.set("rt.gc_cycles_per_round", float64(ref.memEnd.NumGC-ref.mem.NumGC)/refRounds)
	ms.set("rt.gc_pause_ms_per_round", float64(ref.memEnd.PauseTotalNs-ref.mem.PauseTotalNs)/refRounds/1e6)
	if ref.wall > 0 {
		ms.set("rt.cpu_util_pct", 100*ref.cpu/(ref.wall*float64(runtime.GOMAXPROCS(0))))
	}
	_, refPeriods := ref.meter.timedPeriodsMS()
	if refP50 := median(refPeriods); refP50 > 0 {
		ms.setN("trace.overhead_pct", 100*(period-refP50)/refP50, len(periods))
	}
}
