// Command fluxsim regenerates the paper's tables and figures on the Go
// substrate, and runs fleet scenario files.
//
// Usage:
//
//	fluxsim -exp figure10            # one experiment, full scale
//	fluxsim -exp all -quick          # the whole suite at bench scale
//	fluxsim -exp figure10 -fleet longtail
//	                                 # a paper experiment on a built-in
//	                                 # heterogeneous fleet distribution
//	fluxsim -exp figure10 -fleet longtail -agg async -buffer-k 5
//	                                 # the same experiment under buffered-
//	                                 # async aggregation
//	fluxsim -list                    # show available experiment ids
//	fluxsim -scenario scenarios/straggler-drop.json
//	                                 # one fleet scenario: heterogeneous
//	                                 # profiles, cohort selection, deadlines
//	fluxsim -scenario s.json -trace out.json -runlog run.jsonl
//	                                 # ... with a Perfetto-viewable timeline
//	                                 # and a structured JSONL round log
//	fluxsim -trace-summary out.json  # critical path, per-phase totals, and
//	                                 # slowest participants of a saved trace
//	fluxsim -runlog-diff a.jsonl b.jsonl
//	                                 # first diverging record (round and
//	                                 # participant) of two run logs and the
//	                                 # fields that differ; exit 1 if any
//
// The exit status is non-zero if any requested experiment fails; remaining
// experiments still run.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	flux "repro"
	"repro/internal/obs"
)

func main() {
	// All work happens in run so that deferred profile writers fire before
	// the process exits; os.Exit directly from main would skip them.
	os.Exit(run())
}

func run() int {
	exp := flag.String("exp", "all", "experiment id (table1, figure1, ... figure20, staleness) or 'all'")
	scenario := flag.String("scenario", "", "fleet scenario file (JSON); overrides -exp")
	fleetDist := flag.String("fleet", "", "run -exp experiments under a built-in fleet distribution (uniform, tiered, longtail, flaky)")
	aggMode := flag.String("agg", "", "run -exp experiments under an aggregation mode (sync, async, semisync)")
	bufferK := flag.Int("buffer-k", 0, "async aggregation buffer size (0 = half the cohort); requires -agg")
	stalenessAlpha := flag.Float64("staleness-alpha", 0, "staleness discount exponent for async/semisync aggregation; requires -agg")
	quick := flag.Bool("quick", false, "reduced rounds/samples; same workload shapes")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker pool for each round's participants, evaluation and profiling model (1 = serial); results are bit-identical at any setting")
	list := flag.Bool("list", false, "list experiment ids and exit")
	trace := flag.String("trace", "", "write a Chrome trace-event timeline of the scenario run to this file (view in Perfetto); requires -scenario")
	runlog := flag.String("runlog", "", "write a structured JSONL run log of the scenario run to this file; requires -scenario")
	traceSummary := flag.String("trace-summary", "", "summarize a trace file written by -trace (critical path, phase totals, slowest participants) and exit")
	diffRunlogs := flag.Bool("runlog-diff", false, "compare the two run logs named as arguments (written by -runlog): print the first diverging record and the fields that differ, exit 1 if they differ")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with `go tool pprof`)")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fluxsim:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "fluxsim:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		// The heap profile is written on the way out so it reflects the whole
		// run, including failed-experiment exits.
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fluxsim:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so live objects dominate the profile
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "fluxsim:", err)
			}
		}()
	}

	if *list {
		fmt.Println(strings.Join(flux.Experiments(), "\n"))
		return 0
	}
	if *diffRunlogs {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "fluxsim: -runlog-diff takes two run log files: fluxsim -runlog-diff a.jsonl b.jsonl")
			return 1
		}
		same, err := runlogDiff(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "fluxsim:", err)
			return 1
		}
		if same {
			return 0
		}
		return 1
	}
	if *traceSummary != "" {
		if err := summarizeTrace(*traceSummary); err != nil {
			fmt.Fprintln(os.Stderr, "fluxsim:", err)
			return 1
		}
		return 0
	}
	if *scenario != "" {
		// A scenario file fixes its own scale and fleet; refuse flags that
		// would be silently ignored (-exp alone is documented as overridden).
		if *quick || *fleetDist != "" || *aggMode != "" || *bufferK != 0 || *stalenessAlpha != 0 {
			fmt.Fprintln(os.Stderr, "fluxsim: -scenario cannot be combined with -quick, -fleet, or the -agg flags (the scenario file fixes scale, fleet, and aggregation)")
			return 1
		}
		if err := runScenario(*scenario, *workers, *trace, *runlog); err != nil {
			fmt.Fprintln(os.Stderr, "fluxsim:", err)
			return 1
		}
		return 0
	}
	if *trace != "" || *runlog != "" {
		// The experiment suite multiplexes many runs over one process; the
		// per-run sinks only make sense for a single scenario run.
		fmt.Fprintln(os.Stderr, "fluxsim: -trace and -runlog require -scenario (one run per sink)")
		return 1
	}
	var fleetSpec flux.FleetSpec
	if *fleetDist != "" {
		if _, err := flux.FleetDistribution(*fleetDist); err != nil {
			fmt.Fprintln(os.Stderr, "fluxsim:", err)
			return 1
		}
		fleetSpec.Distribution = *fleetDist
	}
	var aggSpec flux.AggregationSpec
	if *aggMode != "" {
		aggSpec = flux.AggregationSpec{Mode: *aggMode, BufferK: *bufferK, StalenessAlpha: *stalenessAlpha}
		if err := aggSpec.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, "fluxsim:", err)
			return 1
		}
	} else if *bufferK != 0 || *stalenessAlpha != 0 {
		fmt.Fprintln(os.Stderr, "fluxsim: -buffer-k and -staleness-alpha need -agg async or -agg semisync")
		return 1
	}
	ids := flux.Experiments()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	failed := 0
	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		if err := flux.RunExperimentOpts(id, flux.ExperimentOptions{Quick: *quick, Parallelism: *workers, Fleet: fleetSpec, Aggregation: aggSpec}, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "fluxsim:", err)
			failed++
			continue
		}
		fmt.Printf("  (%s in %.1fs)\n\n", id, time.Since(start).Seconds())
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "fluxsim: %d of %d experiments failed\n", failed, len(ids))
		return 1
	}
	return 0
}

// runScenario executes one fleet scenario file, streaming per-round
// participation and timing so straggler and selection effects are visible.
// tracePath and runlogPath, when non-empty, receive the run's Chrome trace
// timeline and structured JSONL log.
func runScenario(path string, workers int, tracePath, runlogPath string) error {
	s, err := flux.LoadScenario(path)
	if err != nil {
		return err
	}
	cfg := s.Config()
	fmt.Printf("== scenario %s ==\n", s.Name)
	if s.Description != "" {
		fmt.Printf("  %s\n", s.Description)
	}
	fmt.Printf("  method=%s dataset=%s model=%s participants=%d rounds=%d\n",
		cfg.Method, cfg.Dataset, cfg.Model, cfg.Participants, cfg.Rounds)

	var sinkOpts []flux.Option
	var sinkFiles []*os.File
	for _, sink := range []struct {
		path string
		opt  func(io.Writer) flux.Option
	}{{tracePath, flux.WithTrace}, {runlogPath, flux.WithRunLog}} {
		if sink.path == "" {
			continue
		}
		f, err := os.Create(sink.path)
		if err != nil {
			return err
		}
		sinkFiles = append(sinkFiles, f)
		sinkOpts = append(sinkOpts, sink.opt(f))
	}
	closeSinks := func() error {
		var first error
		for _, f := range sinkFiles {
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
		}
		sinkFiles = nil
		return first
	}
	defer closeSinks()

	opts := append(s.Options(), sinkOpts...)
	opts = append(opts,
		flux.WithParallelism(workers),
		flux.WithRoundEvents(func(ev flux.RoundEvent) {
			if ev.Round == 0 {
				fmt.Printf("  baseline score=%.4f\n", ev.Score)
				return
			}
			// Sum in sorted-phase order: a map range would accumulate the
			// float total in randomized order and flip its last bit run-to-run.
			keys := make([]string, 0, len(ev.Phases))
			for k := range ev.Phases {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			var roundSec float64
			for _, k := range keys {
				roundSec += ev.Phases[k]
			}
			line := fmt.Sprintf("  round %2d  score=%.4f  t=%6.2fh  round=%6.0fs  cohort %d/%d",
				ev.Round, ev.Score, ev.SimHours, roundSec, ev.Completed, ev.Selected)
			if ev.Dropped > 0 {
				line += fmt.Sprintf("  dropped=%d  idle=%.0fs", ev.Dropped, ev.Phases[string(flux.PhaseStraggler)])
			}
			if ev.ModelVersion > 0 {
				line += fmt.Sprintf("  v=%d stale=%d pending=%d", ev.ModelVersion, ev.Stale, ev.Pending)
			}
			fmt.Println(line)
		}),
	)
	e, err := flux.New(opts...)
	if err != nil {
		return err
	}
	res, err := e.Run(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("  final=%.4f best=%.4f simulated=%.2fh uplink=%.1fMB downlink=%.1fMB participation=%d/%d (dropped %d)\n",
		res.Final, res.Best, res.SimHours, res.UplinkBytes/1e6, res.DownlinkBytes/1e6, res.Completed, res.Selected, res.Dropped)
	if res.ModelVersion > 0 {
		fmt.Printf("  aggregation: model version %d, %d stale merges\n", res.ModelVersion, res.Stale)
	}
	if err := closeSinks(); err != nil {
		return err
	}
	if tracePath != "" {
		fmt.Printf("  trace written to %s (open in ui.perfetto.dev; summarize with -trace-summary)\n", tracePath)
	}
	if runlogPath != "" {
		fmt.Printf("  run log written to %s\n", runlogPath)
	}
	fmt.Println()
	return nil
}

// summarizeTrace prints the critical path, per-phase totals, server idle
// time, and slowest participants of a trace file written by -trace.
func summarizeTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sum, err := obs.Summarize(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return sum.WriteText(os.Stdout, 5)
}
