// Command benchguard compares a fresh benchjson run against the committed
// bench snapshot and fails when allocation counts regress. It guards the
// zero-allocation steady state of the round path: ns/op is too noisy on
// shared CI runners to gate on, but allocs/op is deterministic for a fixed
// workload, so a >10% jump always means somebody reintroduced a per-token or
// per-round allocation.
//
//	go test -run '^$' -bench '^BenchmarkRound$' -benchmem -benchtime 2x -count 3 . \
//	    | benchjson | benchguard -baseline bench/BENCH_round.json
//
// Benchmarks present on only one side are reported but not fatal, so
// adding or retiring a sub-benchmark does not require a lockstep snapshot
// update; a run none of whose benchmarks has a baseline entry fails, since
// it gated nothing. A snapshot entry without a name or with a negative
// figure, or trailing data after the array, fails too.
//
// Duplicate entries for one benchmark name (from -count N) collapse to their
// median allocs/op before comparison, on both the fresh and the baseline
// side. Short -benchtime runs are bimodal — a GC cycle or pool warm-up
// landing inside the measured window inflates a single sample — so the
// median of three runs is stable where any single run occasionally trips the
// ratio gate.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// result mirrors the benchjson output fields benchguard cares about.
type result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// regression describes one benchmark whose allocs/op grew beyond the
// tolerated ratio.
type regression struct {
	Name     string
	Base     float64
	Fresh    float64
	Ratio    float64 // fresh/base
	MaxRatio float64
}

func (r regression) String() string {
	return fmt.Sprintf("%s: allocs/op %.0f -> %.0f (%.2fx, limit %.2fx)",
		r.Name, r.Base, r.Fresh, r.Ratio, r.MaxRatio)
}

// compare returns the benchmarks in fresh whose allocs/op exceed maxRatio
// times the baseline value, preserving fresh order. A baseline of zero
// allocs tolerates zero fresh allocs only: any allocation appearing on a
// previously allocation-free path is a regression regardless of ratio.
func compare(base, fresh []result, maxRatio float64) []regression {
	byName := make(map[string]result, len(base))
	for _, b := range base {
		byName[b.Name] = b
	}
	var regs []regression
	for _, f := range fresh {
		b, ok := byName[f.Name]
		if !ok {
			continue
		}
		if b.AllocsPerOp == 0 {
			if f.AllocsPerOp > 0 {
				regs = append(regs, regression{Name: f.Name, Base: 0, Fresh: f.AllocsPerOp, Ratio: 0, MaxRatio: maxRatio})
			}
			continue
		}
		ratio := f.AllocsPerOp / b.AllocsPerOp
		if ratio > maxRatio {
			regs = append(regs, regression{Name: f.Name, Base: b.AllocsPerOp, Fresh: f.AllocsPerOp, Ratio: ratio, MaxRatio: maxRatio})
		}
	}
	return regs
}

// aggregate collapses duplicate benchmark names (repeated runs from
// -count N) into one entry holding the median of each metric, keeping
// first-appearance order. Names occurring once pass through unchanged.
func aggregate(rs []result) []result {
	byName := make(map[string][]result, len(rs))
	var order []string
	for _, r := range rs {
		if _, seen := byName[r.Name]; !seen {
			order = append(order, r.Name)
		}
		byName[r.Name] = append(byName[r.Name], r)
	}
	out := make([]result, 0, len(order))
	for _, name := range order {
		runs := byName[name]
		allocs := make([]float64, len(runs))
		ns := make([]float64, len(runs))
		for i, r := range runs {
			allocs[i] = r.AllocsPerOp
			ns[i] = r.NsPerOp
		}
		out = append(out, result{Name: name, NsPerOp: median(ns), AllocsPerOp: median(allocs)})
	}
	return out
}

// median returns the middle value of vs (the mean of the middle two for even
// lengths). vs is sorted in place; callers pass freshly built slices.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	mid := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[mid]
	}
	return (vs[mid-1] + vs[mid]) / 2
}

// unmatched returns names present in fresh but absent from base.
func unmatched(base, fresh []result) []string {
	byName := make(map[string]bool, len(base))
	for _, b := range base {
		byName[b.Name] = true
	}
	var missing []string
	for _, f := range fresh {
		if !byName[f.Name] {
			missing = append(missing, f.Name)
		}
	}
	return missing
}

// decode reads a benchjson array; extra fields (iterations, bytes_per_op,
// params) are deliberately tolerated so the two tools can evolve separately.
// An entry without a name or with a negative figure, and anything after the
// array, is an error: each would let a regression pass unseen.
func decode(r io.Reader) ([]result, error) {
	dec := json.NewDecoder(r)
	var rs []result
	//fluxvet:allow strictdecode benchjson output carries fields benchguard ignores by design; not a config file
	if err := dec.Decode(&rs); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("trailing data after the benchmark array")
	}
	for i, r := range rs {
		if r.Name == "" {
			return nil, fmt.Errorf("entry %d has no name", i)
		}
		if r.NsPerOp < 0 || r.AllocsPerOp < 0 {
			return nil, fmt.Errorf("%s: ns_per_op %v and allocs_per_op %v must be non-negative", r.Name, r.NsPerOp, r.AllocsPerOp)
		}
	}
	return rs, nil
}

// check compares fresh against base (both as decoded; repeated runs collapse
// to their medians), reporting skipped and passing benchmarks to w. It fails
// when fresh is empty, when no fresh benchmark has a baseline entry — an
// empty or unrelated baseline gates nothing — or when any allocs/op
// regresses.
func check(base, fresh []result, maxRatio float64, w io.Writer) error {
	if len(fresh) == 0 {
		return errors.New("no benchmark results on stdin")
	}
	base = aggregate(base)
	fresh = aggregate(fresh)
	missing := unmatched(base, fresh)
	for _, name := range missing {
		fmt.Fprintf(w, "benchguard: %s has no baseline entry (new benchmark?), skipping\n", name)
	}
	if len(missing) == len(fresh) {
		return errors.New("no fresh benchmark matches a baseline entry")
	}
	regs := compare(base, fresh, maxRatio)
	if len(regs) == 0 {
		fmt.Fprintf(w, "benchguard: %d benchmarks within %.0f%% alloc budget\n", len(fresh)-len(missing), (maxRatio-1)*100)
		return nil
	}
	msgs := make([]error, len(regs))
	for i, r := range regs {
		msgs[i] = fmt.Errorf("ALLOC REGRESSION %s", r)
	}
	return errors.Join(msgs...)
}

func main() {
	baseline := flag.String("baseline", "bench/BENCH_round.json", "committed snapshot to compare against")
	maxRatio := flag.Float64("max-ratio", 1.10, "fail when fresh allocs/op exceeds baseline by this factor")
	flag.Parse()

	bf, err := os.Open(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
	base, err := decode(bf)
	bf.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %s: %v\n", *baseline, err)
		os.Exit(1)
	}
	fresh, err := decode(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard: stdin:", err)
		os.Exit(1)
	}
	if err := check(base, fresh, *maxRatio, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %s: %v\n", *baseline, err)
		os.Exit(1)
	}
}
