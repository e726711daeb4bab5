// Fluxbench is the repository's wall-clock benchmark: four workloads, seven
// kinds of layer, one command. It reports what a user of the SDK feels
// (end-to-end metrics, measured through the public API with tracing off) and
// where that time goes (per-layer metrics, from a separate traced run that
// replays one participant per round through each layer's public functions).
//
//	go run ./cmd/fluxbench -seed 1 -out bench.json       # all workloads, untraced then traced
//	go run ./cmd/fluxbench -workload flux-sync -trace 0   # one run (the BENCHMARK.json contract)
//	go run ./cmd/fluxbench -list                          # workload and metric names
//
// A single run prints every metric by name with its unit and, as the last
// line of standard output, one JSON object {correct, attempted, failed,
// metrics}. Times are reported at reference speed (see calib.go): the box this
// runs on drifts by tens of percent from minute to minute, and a benchmark-
// owned calibration kernel timed beside every round divides the drift out. Without -workload the command runs every workload in a fresh
// child process each (cold base-model cache, own heap, own peak RSS). Any
// failed correctness check makes the exit status non-zero. See README.md in
// this directory for the metric tables and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fluxbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload, in this process (default: all, one child process each)")
	seed := fs.String("seed", "1", "workload seed: feeds WithSeed and FleetSpec.Seed")
	seconds := fs.Float64("seconds", nominalSeconds, "nominal run length; round budgets scale linearly with it")
	trace := fs.Int("trace", 0, "with -workload: 0 = untraced run, end-to-end metrics; 1 = traced run, per-layer metrics")
	out := fs.String("out", "", "write the full report (context, checks, metrics, spans) to this JSON file")
	list := fs.Bool("list", false, "print workload and metric names and exit")
	rounds := fs.Int("rounds", 0, "override the round budget (smoke tests)")
	pretrain := fs.Int("pretrain", defaultPretrainSteps, "base-model pre-training steps")
	setups := fs.Int("setups", 7, "cold setups timed per untraced run (setup_s is their median)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		printList(stdout)
		return 0
	}
	if *seconds <= 0 || *setups < 1 || *pretrain < 1 || (*rounds != 0 && *rounds <= warmupRounds) {
		fmt.Fprintf(stderr, "fluxbench: -seconds, -setups and -pretrain must be positive, -rounds above %d\n", warmupRounds)
		return 2
	}

	rc := runConfig{seed: *seed, seconds: *seconds, traced: *trace != 0,
		rounds: *rounds, pretrain: *pretrain, setups: *setups}
	if *name == "" {
		return runAll(rc, *out, stdout, stderr)
	}
	var ok bool
	if rc.w, ok = workloadByName(*name); !ok {
		fmt.Fprintf(stderr, "fluxbench: unknown workload %q (see -list)\n", *name)
		return 2
	}
	rep := runOne(rc)
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fmt.Fprintln(stderr, "fluxbench:", err)
			return 1
		}
	}
	printReport(stdout, rep)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		fmt.Fprintln(stderr, "fluxbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

func printList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-22s %d rounds at %ds  %s\n", wl.Name, wl.Rounds, nominalSeconds, wl.Why)
	}
	for _, g := range []struct {
		title string
		defs  []metricDef
	}{
		{"end-to-end metrics (-trace 0):", endToEndMetrics},
		{"per-layer metrics (-trace 1):", perLayerMetrics},
		{"derived metrics (all-workload run):", derivedMetrics},
	} {
		fmt.Fprintln(w, g.title)
		for _, d := range g.defs {
			fmt.Fprintf(w, "  %-32s %-9s better: %s\n", d.Name, d.Unit, d.Better)
		}
	}
}

func contextLine(c machineContext) string {
	return fmt.Sprintf("%s/%s cpus=%d gomaxprocs=%d %s commit=%.12s seed=%s seconds=%g pretrain=%d",
		c.GOOS, c.GOARCH, c.NumCPU, c.GOMAXPROCS, c.GoVersion, c.Commit, c.Seed, c.Seconds, c.PretrainSteps)
}

// printReport prints one run: context, every metric by name with its unit
// (and the sample count where the value is a statistic), then the checks.
func printReport(w io.Writer, rep *report) {
	mode, defs := "untraced", endToEndMetrics
	if rep.Traced {
		mode, defs = "traced", perLayerMetrics
	}
	fmt.Fprintf(w, "== %s (%s, %d rounds, first %d warm-up) | %s\n", rep.Workload, mode, rep.Rounds, warmupRounds, contextLine(rep.Context))
	for _, d := range defs {
		m := rep.Metrics[d.Name]
		n := ""
		if c, ok := rep.Samples[d.Name]; ok {
			n = fmt.Sprintf("n=%d", c)
		}
		fmt.Fprintf(w, "  %-32s %14s %-9s %s\n", d.Name, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit, n)
	}
	for _, c := range rep.Checks {
		if !c.OK {
			fmt.Fprintf(w, "  CHECK FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
	if len(rep.Calib) > 0 {
		fmt.Fprintf(w, "  times are at reference speed; this run's machine ran at %.0f%% of it (calibration kernel median %.4f ms, reference %.4f ms)\n",
			100*calibRefMS/median(rep.Calib), median(rep.Calib), calibRefMS)
	}
	fmt.Fprintf(w, "  ops_attempted=%d ops_failed=%d correct=%v digest=%.16s\n", rep.Attempted, rep.Failed, rep.Correct, rep.Digest)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var rep report
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// allReport is the -out file of an all-workload run.
type allReport struct {
	Context machineContext   `json:"context"`
	Runs    []*report        `json:"runs"`
	Derived map[string]value `json:"derived"`
	Claim   *string          `json:"claim"` // a benchmark run claims no gain
}

// runAll runs every workload, untraced then traced, each in a fresh child
// process with rc's settings, and prints the reports plus the cross-workload
// metrics.
func runAll(rc runConfig, out string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "fluxbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp("", "fluxbench")
	if err != nil {
		fmt.Fprintln(stderr, "fluxbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	all := allReport{Context: newMachineContext(rc.seed, rc.seconds, rc.pretrain), Derived: make(map[string]value)}
	status := 0
	p50 := make(map[string]float64)
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			path := fmt.Sprintf("%s/%s.%d.json", dir, w.Name, trace)
			cmd := exec.Command(self, "-workload", w.Name, "-seed", rc.seed,
				"-seconds", strconv.FormatFloat(rc.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
				"-rounds", strconv.Itoa(rc.rounds), "-pretrain", strconv.Itoa(rc.pretrain),
				"-setups", strconv.Itoa(rc.setups), "-out", path)
			cmd.Stderr = stderr
			runErr := cmd.Run() // the child's own stdout repeats what the report holds
			rep, err := readReport(path)
			if err != nil {
				fmt.Fprintf(stderr, "fluxbench: %s trace=%d: %v (child: %v)\n", w.Name, trace, err, runErr)
				status = 1
				continue
			}
			if runErr != nil || !rep.Correct {
				status = 1
			}
			printReport(stdout, rep)
			all.Runs = append(all.Runs, rep)
			all.Context.Budgets[w.Name+"/"+strconv.Itoa(trace)] = rep.Rounds
			if trace == 0 {
				p50[w.Name] = rep.Metrics["round_ms_p50"].Value
			}
		}
	}

	// fed.pool_speedup: the same task, one worker against the pool. Ideal is
	// the worker count.
	if serial, sync := p50["flux-serial"], p50["flux-sync"]; serial > 0 && sync > 0 {
		all.Derived["fed.pool_speedup"] = value{Value: serial / sync, Unit: "ratio"}
	}
	fmt.Fprintf(stdout, "== derived | %s\n", contextLine(all.Context))
	names := make([]string, 0, len(all.Derived))
	for name := range all.Derived {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := all.Derived[name]
		fmt.Fprintf(stdout, "  %-32s %14s %-9s\n", name, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
	}
	if out != "" {
		if err := writeJSON(out, all); err != nil {
			fmt.Fprintln(stderr, "fluxbench:", err)
			return 1
		}
	}
	return status
}
