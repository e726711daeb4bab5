package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	flux "repro"
)

// childEnv makes the test binary behave as the fluxbench command, so the
// all-workload run's child processes (os.Executable) work under go test.
const childEnv = "FLUXBENCH_TEST_AS_COMMAND"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose: 100..1
	}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{50, 50}, {90, 90}, {100, 100}, {1, 1}} {
		got, n := percentile(xs, tc.p)
		if got != tc.want || n != 100 {
			t.Errorf("percentile(1..100, %v) = %v (n=%d), want %v (n=100)", tc.p, got, n, tc.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	// Ten samples lie beyond p90 of 100.
	if v, _ := percentile(xs, 90); v != 90 {
		t.Errorf("p90 = %v, want 90 (10 samples beyond)", v)
	}
	if v, n := percentile(nil, 50); v != 0 || n != 0 {
		t.Errorf("percentile(nil) = %v, %d, want 0, 0", v, n)
	}
	if v, n := percentile([]float64{7}, 90); v != 7 || n != 1 {
		t.Errorf("percentile of one sample = %v, %d, want 7, 1", v, n)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "round", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},  // overlaps a: 10..50 covered once
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // clipped to the parent
		{ID: 4, Parent: 1, Name: "grandchild", Start: 12, End: 14},
	}
	fillSelf(spans)
	for id, want := range []int64{100 - 40 - 10, 18, 30, 30, 2} {
		if got := spans[id].Self; got != want {
			t.Errorf("self time of %s = %d, want %d", spans[id].Name, got, want)
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	root := tr.begin("run", -1)
	tr.timed("child", root, func() { time.Sleep(time.Millisecond) })
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].dur() <= 0 {
		t.Fatalf("unexpected spans %+v", tr.spans)
	}
	if tr.spans[0].Start > tr.spans[1].Start || tr.spans[0].End < tr.spans[1].End {
		t.Errorf("child %+v not inside root %+v", tr.spans[1], tr.spans[0])
	}
}

func TestDurationsWeighted(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "x", Start: 0, End: 2e6},
		{ID: 1, Parent: -1, Name: "x", Start: 0, End: 4e6},
		{ID: 2, Parent: -1, Name: "y", Start: 0, End: 8e6},
	}
	got := durationsMS(spans, "x", []float64{0.5, 0, 1}) // span 1 is outside the timed rounds
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("durationsMS = %v, want [1]", got)
	}
}

// TestSpeedMeter pins the arithmetic that reads a round at reference speed:
// the handler's own time comes out of the next period, and the period is
// scaled by (the reference time over the mean of the two samples around
// it)^calibExponent.
func TestSpeedMeter(t *testing.T) {
	m := &speedMeter{
		samples: []float64{calibRefMS, calibRefMS, 3 * calibRefMS},
		spent:   []float64{1, 2, 3},
		events: []flux.RoundEvent{
			{Round: 0, Elapsed: 0},
			{Round: 1, Elapsed: 101 * time.Millisecond},
			{Round: 2, Elapsed: 303 * time.Millisecond},
		},
	}
	if raw, ref := m.periodMS(1); raw != 100 || ref != 100 {
		t.Errorf("round 1 = %v raw, %v at reference speed, want 100, 100", raw, ref)
	}
	// Round 2 ran on a machine half as fast as the reference (mean sample 2×).
	want := 200 * math.Pow(0.5, calibExponent)
	if raw, ref := m.periodMS(2); raw != 200 || math.Abs(ref-want) > 1e-9 {
		t.Errorf("round 2 = %v raw, %v at reference speed, want 200, %v", raw, ref, want)
	}
	if got := (timing{RawS: 2, Before: calibRefMS, After: 3 * calibRefMS}).seconds(); math.Abs(got-want/100) > 1e-9 {
		t.Errorf("a 2 s interval at half speed reads %v s, want %v", got, want/100)
	}
	if f := m.factor(3); f != 1 {
		t.Errorf("factor of a round without samples on both sides = %v, want 1", f)
	}
	if s := newCalibrator(2).sample(); s <= 0 {
		t.Errorf("calibration sample = %v ms, want > 0", s)
	}
}

func TestDigestStable(t *testing.T) {
	events := []flux.RoundEvent{
		{Round: 0, Score: 0.25},
		{Round: 1, Score: 0.5, SimHours: 1.5, UplinkBytes: 4096, Elapsed: time.Second},
	}
	a := digest(events)
	events[1].Elapsed = 2 * time.Second // wall time is not part of convergence
	if b := digest(events); a != b {
		t.Errorf("digest depends on wall time: %s vs %s", a, b)
	}
	events[1].UplinkBytes = 4097
	if b := digest(events); a == b {
		t.Error("digest ignores uplink bytes")
	}
	if len(a) != 64 {
		t.Errorf("digest %q is not a sha256 hex string", a)
	}
}

func TestWorkloadOptionsValidate(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rounds := w.budget(nominalSeconds, traced)
			if rounds <= warmupRounds {
				t.Errorf("%s: budget %d leaves no timed round", w.Name, rounds)
			}
			exp, err := flux.New(w.options("7", rounds, defaultPretrainSteps)...)
			if err != nil {
				t.Errorf("%s: %v", w.Name, err)
				continue
			}
			cfg := exp.Config()
			if err := cfg.Validate(); err != nil {
				t.Errorf("%s: %v", w.Name, err)
			}
			if cfg.Rounds != rounds || cfg.Seed != "fluxbench/7" {
				t.Errorf("%s: rounds %d seed %q, want %d and the -seed value", w.Name, cfg.Rounds, cfg.Seed, rounds)
			}
		}
	}
	if w, _ := workloadByName("flux-sync"); w.budget(nominalSeconds, false) != w.Rounds {
		t.Error("the nominal budget is not the workload's Rounds")
	}
	if w, _ := workloadByName("flux-sync"); w.budget(2*nominalSeconds, false) != 2*w.Rounds {
		t.Error("budgets do not scale linearly with -seconds")
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestNamesMatchBenchmarkJSON is the drift guard: the names this command
// prints are the names BENCHMARK.json declares.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Command, []string{"go", "run", "./cmd/fluxbench"}) || !reflect.DeepEqual(b.Paths, []string{"cmd/fluxbench"}) {
		t.Errorf("command %v / paths %v do not name this package", b.Command, b.Paths)
	}
	if b.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds %d, budgets are sized for %d", b.RunSeconds, nominalSeconds)
	}
	var gotW, wantW []string
	for _, w := range b.Workloads {
		gotW = append(gotW, w.Name+"|"+w.Why)
	}
	for _, w := range workloads {
		wantW = append(wantW, w.Name+"|"+w.Why)
	}
	if !reflect.DeepEqual(gotW, wantW) {
		t.Errorf("workloads differ:\n json %q\n code %q", gotW, wantW)
	}
	var got, want []metricDef
	for _, m := range b.EndToEnd {
		got = append(got, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(got, endToEndMetrics) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", got, endToEndMetrics)
	}
	got = nil
	for _, m := range b.PerLayer {
		got = append(got, metricDef{m.Name, m.Unit, m.Better})
	}
	want = perLayerMetrics
	if !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer differs:\n json %v\n code %v", got, want)
	}

	// -list prints exactly those names.
	var out bytes.Buffer
	if code := run([]string{"-list"}, &out, &out); code != 0 {
		t.Fatalf("-list exited %d: %s", code, out.String())
	}
	for _, group := range [][]metricDef{endToEndMetrics, perLayerMetrics, derivedMetrics} {
		for _, d := range group {
			if !strings.Contains(out.String(), "  "+d.Name+" ") {
				t.Errorf("-list does not print %s", d.Name)
			}
		}
	}
	for _, w := range workloads {
		if !strings.Contains(out.String(), "  "+w.Name+" ") {
			t.Errorf("-list does not print workload %s", w.Name)
		}
	}
}

// TestSmokeAllWorkloads runs the real thing, small: every workload untraced
// then traced, each in a child process, through the same code path as
// `go run ./cmd/fluxbench`.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eight child processes")
	}
	t.Setenv(childEnv, "1")
	outFile := filepath.Join(t.TempDir(), "bench.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-seed", "smoke", "-rounds", "4", "-pretrain", "30", "-setups", "1", "-out", outFile}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	f, err := os.Open(outFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var all allReport
	if err := dec.Decode(&all); err != nil {
		t.Fatal(err)
	}
	if len(all.Runs) != 2*len(workloads) {
		t.Fatalf("%d runs, want %d", len(all.Runs), 2*len(workloads))
	}
	if all.Claim != nil {
		t.Errorf("a benchmark run claims no gain, got %q", *all.Claim)
	}
	if all.Context.NumCPU < 1 || all.Context.GoVersion == "" || all.Context.Commit == "" || all.Context.Seed != "smoke" {
		t.Errorf("machine context incomplete: %+v", all.Context)
	}
	for _, rep := range all.Runs {
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 4 {
			t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d checks=%+v",
				rep.Workload, rep.Traced, rep.Correct, rep.Attempted, rep.Failed, rep.Checks)
		}
		defs := endToEndMetrics
		if rep.Traced {
			defs = perLayerMetrics
			if len(rep.Spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", rep.Workload)
			}
		}
		if len(rep.Metrics) != len(defs) {
			t.Errorf("%s traced=%v: %d metrics, want %d", rep.Workload, rep.Traced, len(rep.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := rep.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("%s: metric %s missing or unit %q != %q", rep.Workload, d.Name, m.Unit, d.Unit)
			}
			if !rep.Traced && m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", rep.Workload, d.Name, m.Value)
			}
		}
	}
	if v := all.Derived["fed.pool_speedup"].Value; v <= 0 {
		t.Errorf("fed.pool_speedup = %v, want > 0", v)
	}
	for _, d := range endToEndMetrics {
		if !strings.Contains(stdout.String(), d.Name) {
			t.Errorf("output does not print %s", d.Name)
		}
	}
}
