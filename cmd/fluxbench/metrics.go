package main

import (
	"math"
	"sort"
)

// metricDef names one reported number. The names are the repository's
// measuring stick — later performance claims cite them — so they change only
// in a benchmark PR, together with BENCHMARK.json (TestNamesMatchBenchmarkJSON
// guards the pairing).
type metricDef struct {
	Name, Unit, Better string
}

// endToEndMetrics are what a user of the SDK feels; reported by every
// untraced run (-trace 0). Regression bounds live in BENCHMARK.json.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"rounds_per_s", "rounds/s", "higher"},
	{"round_ms_p50", "ms", "lower"},
	{"round_ms_p90", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"uplink_mb_per_round", "MB", "lower"},
}

// perLayerMetrics are reported by every traced run (-trace 1), one group
// per package of this repository. A layer the workload does not execute
// reports 0.
var perLayerMetrics = []metricDef{
	{"tensor.matmul_model_us", "us", "lower"},
	{"quant.roundtrip_us", "us", "lower"},
	{"moe.fwdbwd_ms", "ms", "lower"},
	{"moe.fwd_ms", "ms", "lower"},
	{"moe.sgd_ms", "ms", "lower"},
	{"moe.clone_ms", "ms", "lower"},
	{"moe.quantize_ms", "ms", "lower"},
	{"moe.customize_ms", "ms", "lower"},
	{"moe.encode_ms", "ms", "lower"},
	{"moe.decode_ms", "ms", "lower"},
	{"moe.fwdbwd_calls_per_round", "count", "lower"},
	{"moe.train_tokens_per_s", "tokens/s", "higher"},
	{"profile.run_ms", "ms", "lower"},
	{"merge.plan_ms", "ms", "lower"},
	{"assign.assign_us", "us", "lower"},
	{"assign.spsa_ms", "ms", "lower"},
	{"assign.explore_per_participant", "count", "lower"},
	{"fed.transport_round_ms", "ms", "lower"},
	{"fed.participant_ms", "ms", "lower"},
	{"fed.pool_efficiency", "ratio", "higher"},
	{"fed.extract_us", "us", "lower"},
	{"fed.aggregate_ms", "ms", "lower"},
	{"fed.wire_model_ms", "ms", "lower"},
	{"fed.wire_update_ms", "ms", "lower"},
	{"fed.wire_ms_per_round", "ms", "lower"},
	{"fed.wire_down_mb_per_round", "MB", "lower"},
	{"fed.wire_up_mb_per_round", "MB", "lower"},
	{"fed.versions_per_round", "count", "higher"},
	{"fed.stale_per_round", "count", "lower"},
	{"fed.pending_max", "count", "lower"},
	{"fleet.cohort_us", "us", "lower"},
	{"fleet.selected_per_round", "count", "higher"},
	{"fleet.dropped_per_round", "count", "lower"},
	{"eval.evaluate_ms", "ms", "lower"},
	{"eval.share_pct", "%", "lower"},
	{"setup.pretrain_s", "s", "lower"},
	{"setup.env_s", "s", "lower"},
	{"data.batch_us", "us", "lower"},
	{"simtime.sim_hours", "h", "lower"},
	{"obs.endround_us", "us", "lower"},
	{"sdk.round_overhead_ms", "ms", "lower"},
	{"sdk.unattributed_pct", "%", "lower"},
	{"sdk.warmup_ms", "ms", "lower"},
	{"rt.alloc_mb_per_round", "MB", "lower"},
	{"rt.allocs_per_round", "count", "lower"},
	{"rt.gc_cycles_per_round", "count", "lower"},
	{"rt.gc_pause_ms_per_round", "ms", "lower"},
	{"rt.cpu_util_pct", "%", "higher"},
	{"trace.overhead_pct", "%", "lower"},
	{"best_score", "score", "higher"},
}

// derivedMetrics need more than one workload and are printed only by the
// all-workload run (no -workload flag).
var derivedMetrics = []metricDef{
	{"fed.pool_speedup", "ratio", "higher"},
}

// metricSet collects one run's values and, for statistics over samples, how
// many samples stand behind each.
type metricSet struct {
	values  map[string]float64
	samples map[string]int
}

func newMetricSet() *metricSet {
	return &metricSet{values: make(map[string]float64), samples: make(map[string]int)}
}

func (m *metricSet) set(name string, v float64) { m.values[name] = v }

func (m *metricSet) setN(name string, v float64, n int) {
	m.values[name] = v
	m.samples[name] = n
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs
// and the sample count: the smallest sample with at least p percent of the
// samples at or below it, so n−ceil(p·n/100) samples lie beyond it. It
// returns 0, 0 for no samples and leaves xs untouched.
func percentile(xs []float64, p float64) (float64, int) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p * float64(n) / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n
}

// median is percentile(xs, 50) without the count.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
