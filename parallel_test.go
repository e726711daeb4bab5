package flux_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	flux "repro"
)

// parallelConfig is a small-but-real run with enough participants (8) that a
// workers=8 pool genuinely executes concurrently.
func parallelConfig(method string, workers int) flux.Config {
	cfg := flux.DefaultConfig()
	cfg.Method = method
	cfg.Seed = "parallel-equality"
	cfg.Participants = 8
	cfg.Rounds = 2
	cfg.Batch = 3
	cfg.LocalIters = 1
	cfg.Alpha = 1.0
	cfg.DatasetSize = 96
	cfg.EvalSubset = 8
	cfg.PretrainSteps = 60
	cfg.Workers = workers
	return cfg
}

func runParallelCfg(t *testing.T, cfg flux.Config) *flux.Result {
	t.Helper()
	e, err := flux.New(flux.WithConfig(cfg))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// TestSerialParallelBitEquality asserts the engine's core determinism
// contract: for every built-in method, the full convergence curve AND the
// simulated per-phase timings are bit-identical between workers=1 (the
// serial path) and workers=8 (the pool). Any float that depends on worker
// scheduling — accumulation order, RNG stream splitting, phase maxima —
// breaks this test.
//
// Flux hands each round's profiling pass back to the pool, and the next
// round reads it, so its arms run four rounds at pool widths 2 and 8: in
// sync mode, under buffered-async aggregation, and on a longtail fleet with
// a drop deadline.
func TestSerialParallelBitEquality(t *testing.T) {
	type arm struct {
		name    string
		cfg     func(workers int) flux.Config
		workers []int
	}
	var arms []arm
	for _, method := range []string{"flux", "fmd", "fmq", "fmes"} {
		arms = append(arms, arm{method, func(w int) flux.Config { return parallelConfig(method, w) }, []int{8}})
	}
	fluxArm := func(name string, edit func(*flux.Config)) arm {
		return arm{"flux/" + name, func(w int) flux.Config {
			cfg := parallelConfig("flux", w)
			cfg.Rounds = 4
			edit(&cfg)
			return cfg
		}, []int{2, 8}}
	}
	arms = append(arms,
		fluxArm("sync", func(*flux.Config) {}),
		fluxArm("async", func(c *flux.Config) {
			c.Aggregation = flux.AggregationSpec{Mode: flux.AggAsync, BufferK: 3, StalenessAlpha: 0.5}
		}),
		fluxArm("longtail-drop", func(c *flux.Config) {
			c.Participants = 12
			c.DatasetSize = 120
			c.Fleet = flux.FleetSpec{Distribution: "longtail", Seed: "parallel", Deadline: 300, Drop: true}
		}),
	)
	for _, a := range arms {
		t.Run(a.name, func(t *testing.T) {
			serial := runParallelCfg(t, a.cfg(1))
			if strings.HasSuffix(a.name, "-drop") && serial.Dropped == 0 {
				t.Fatal("the deadline dropped no participant; the arm no longer exercises it")
			}
			for _, w := range a.workers {
				t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
					sameRun(t, serial, runParallelCfg(t, a.cfg(w)))
				})
			}
		})
	}
}

// sameRun requires a pooled run to reproduce the serial one bit for bit:
// every round's score, traffic, experts touched, simulated hours and
// phases, and the summary.
func sameRun(t *testing.T, serial, parallel *flux.Result) {
	t.Helper()
	if len(serial.Events) != len(parallel.Events) {
		t.Fatalf("curve lengths differ: serial %d, parallel %d", len(serial.Events), len(parallel.Events))
	}
	for i := range serial.Events {
		a, b := serial.Events[i], parallel.Events[i]
		if a.Round != b.Round {
			t.Fatalf("event %d: rounds %d vs %d", i, a.Round, b.Round)
		}
		if a.Score != b.Score {
			t.Errorf("round %d: score %v (serial) != %v (parallel)", a.Round, a.Score, b.Score)
		}
		if a.UplinkBytes != b.UplinkBytes {
			t.Errorf("round %d: uplink %v != %v", a.Round, a.UplinkBytes, b.UplinkBytes)
		}
		if a.ExpertsTouched != b.ExpertsTouched {
			t.Errorf("round %d: experts touched %d != %d", a.Round, a.ExpertsTouched, b.ExpertsTouched)
		}
		if a.SimHours != b.SimHours {
			t.Errorf("round %d: sim hours %v != %v", a.Round, a.SimHours, b.SimHours)
		}
		if err := samePhases(a.Phases, b.Phases); err != nil {
			t.Errorf("round %d: %v", a.Round, err)
		}
	}
	if serial.Final != parallel.Final || serial.Baseline != parallel.Baseline {
		t.Errorf("summary scores differ: serial final=%v baseline=%v, parallel final=%v baseline=%v",
			serial.Final, serial.Baseline, parallel.Final, parallel.Baseline)
	}
	if err := samePhases(serial.Phases, parallel.Phases); err != nil {
		t.Errorf("aggregate phase breakdown: %v", err)
	}
}

// samePhases requires two per-phase timing maps to be bit-identical.
func samePhases(a, b map[string]float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("phase maps differ in size: %v vs %v", a, b)
	}
	//fluxvet:unordered per-phase equality checks; order cannot affect the verdict
	for phase, va := range a {
		vb, ok := b[phase]
		if !ok {
			return fmt.Errorf("phase %q missing from parallel run", phase)
		}
		if va != vb {
			return fmt.Errorf("phase %q: %v (serial) != %v (parallel)", phase, va, vb)
		}
	}
	return nil
}
