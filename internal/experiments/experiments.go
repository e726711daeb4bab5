// Package experiments regenerates every table and figure of the paper's
// evaluation (plus its motivation section) on the Go substrate. Each
// experiment function is deterministic, returns a printable Table, and has a
// "quick" mode used by the benchmark harness (fewer rounds/samples, same
// workload shapes).
//
// See DESIGN.md for the experiment index and EXPERIMENTS.md for
// paper-versus-measured discussion.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/data"
	"repro/internal/fed"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/moe"
	"repro/internal/simtime"
)

// Options controls experiment scale.
type Options struct {
	// Quick shrinks rounds and sample counts so the full suite completes in
	// minutes. Shapes (orderings, crossovers) are preserved.
	Quick bool

	// Parallelism is the per-round worker count federated runs fan
	// participants, evaluation and the profiling model over
	// (fed.Config.Workers): zero means GOMAXPROCS, one forces serial.
	// Results are bit-identical at every setting, so runMemo safely ignores
	// it.
	Parallelism int

	// Fleet applies a heterogeneous-fleet spec (profiles, cohort selection,
	// straggler deadline) to every federated run of the experiment. The
	// zero Spec reproduces the homogeneous full-participation figures;
	// runMemo keys on it because results depend on it.
	Fleet fleet.Spec

	// Agg applies a server aggregation mode (buffered-async, semi-sync) to
	// every federated run of the experiment. The zero spec is the paper's
	// synchronous protocol; runMemo keys on it because results depend on it.
	Agg fed.AggSpec
}

// fleetKey fingerprints the fleet spec for memoization keys.
func fleetKey(s fleet.Spec) string {
	if !s.Active() {
		return ""
	}
	blob, err := json.Marshal(s)
	if err != nil {
		return fmt.Sprintf("%+v", s)
	}
	return string(blob)
}

// aggKey fingerprints the aggregation spec for memoization keys.
func aggKey(s fed.AggSpec) string {
	if !s.Active() {
		return ""
	}
	blob, err := json.Marshal(s)
	if err != nil {
		return fmt.Sprintf("%+v", s)
	}
	return string(blob)
}

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			parts[i] = c + strings.Repeat(" ", pad)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	printRow(t.Header)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// f2, f3 format floats compactly.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// trainConfig returns the fed config used by convergence experiments.
func trainConfig(o Options) fed.Config {
	cfg := fed.DefaultConfig()
	cfg.Workers = o.Parallelism
	cfg.Fleet = o.Fleet
	cfg.Agg = o.Agg
	if o.Quick {
		cfg.Participants = 6
		cfg.Batch = 5
		cfg.MaxRounds = 8
		cfg.DatasetSize = 180
		cfg.EvalSubset = 10
		cfg.PretrainSteps = 400
	}
	return cfg
}

// ablationDatasets returns the datasets ablation figures sweep: all four at
// full scale, the two generation datasets in quick mode (the paper's
// ablations show the same ordering on every dataset).
func ablationDatasets(o Options) []data.Profile {
	if o.Quick {
		return []data.Profile{data.Dolly(), data.GSM8K()}
	}
	return datasetList()
}

// modelByName maps the experiment model axis to sim configs.
func modelByName(name string) moe.Config {
	if name == "deepseek" {
		return moe.SimConfigDeepSeekTrain()
	}
	return moe.SimConfigLLaMATrain()
}

// runMemo caches convergence runs within a process so Table 2 and the
// convergence figures share work.
var (
	memoMu  sync.Mutex
	runMemo = make(map[string]*methodRun)
)

type methodRun struct {
	Tracker *metrics.Tracker
	Hours   float64
	Final   float64
	TTA     float64
	Reached bool
	Phases  map[simtime.Phase]float64

	// Stale sums the run's stale merges; ModelVersion is the final round's.
	Stale, ModelVersion int
}

// datasetList returns the paper's four datasets.
func datasetList() []data.Profile { return data.Profiles() }
