package flux

import (
	"io"

	"repro/internal/experiments"
)

// Experiments returns the ids of the paper's tables and figures in
// presentation order ("table1", "figure1", ... "figure20").
func Experiments() []string { return experiments.Order() }

// ExperimentOptions controls how RunExperimentOpts regenerates a table or
// figure.
type ExperimentOptions struct {
	// Quick shrinks rounds and sample counts (same workload shapes) so the
	// whole suite completes in minutes.
	Quick bool
	// Parallelism is the per-round worker count the federated runs fan
	// participants, evaluation and the profiling model over; zero means
	// GOMAXPROCS, one forces serial. Every setting produces bit-identical
	// tables.
	Parallelism int
	// Fleet applies a heterogeneous-fleet spec (device profiles, cohort
	// selection, straggler deadline) to every federated run of the
	// experiment. The zero value reproduces the paper's homogeneous
	// full-participation figures.
	Fleet FleetSpec
	// Aggregation applies a server aggregation mode to every federated run
	// of the experiment. The zero value is the paper's synchronous protocol.
	Aggregation AggregationSpec
}

// RunExperiment regenerates one table or figure of the paper's evaluation
// and writes the rendered result to w. Quick mode shrinks rounds and sample
// counts (same workload shapes) so the whole suite completes in minutes.
func RunExperiment(id string, quick bool, w io.Writer) error {
	return RunExperimentOpts(id, ExperimentOptions{Quick: quick}, w)
}

// RunExperimentOpts is RunExperiment with full control over experiment
// execution, including the worker pool's width.
func RunExperimentOpts(id string, opts ExperimentOptions, w io.Writer) error {
	tab, err := experiments.Run(id, experiments.Options{Quick: opts.Quick, Parallelism: opts.Parallelism, Fleet: opts.Fleet, Agg: opts.Aggregation})
	if err != nil {
		return err
	}
	tab.Fprint(w)
	return nil
}
