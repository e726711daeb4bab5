package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

func res(name string, allocs float64) result {
	return result{Name: name, NsPerOp: 1, AllocsPerOp: allocs}
}

func TestCompareWithinBudget(t *testing.T) {
	base := []result{res("a", 100), res("b", 0)}
	fresh := []result{res("a", 109), res("b", 0)}
	if regs := compare(base, fresh, 1.10); len(regs) != 0 {
		t.Fatalf("expected no regressions, got %v", regs)
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	base := []result{res("a", 100), res("b", 50)}
	fresh := []result{res("a", 111), res("b", 55)}
	regs := compare(base, fresh, 1.10)
	if len(regs) != 1 || regs[0].Name != "a" {
		t.Fatalf("expected exactly benchmark a to regress, got %v", regs)
	}
	if got := regs[0].String(); !strings.Contains(got, "100 -> 111") {
		t.Fatalf("regression message missing counts: %q", got)
	}
}

func TestCompareZeroBaselineToleratesNoAllocs(t *testing.T) {
	base := []result{res("zero", 0)}
	if regs := compare(base, []result{res("zero", 1)}, 1.10); len(regs) != 1 {
		t.Fatalf("1 alloc on a zero-alloc baseline must regress, got %v", regs)
	}
	if regs := compare(base, []result{res("zero", 0)}, 1.10); len(regs) != 0 {
		t.Fatalf("0 allocs on a zero-alloc baseline must pass, got %v", regs)
	}
}

func TestCompareIgnoresUnmatched(t *testing.T) {
	base := []result{res("a", 10)}
	fresh := []result{res("a", 10), res("new", 99999)}
	if regs := compare(base, fresh, 1.10); len(regs) != 0 {
		t.Fatalf("benchmarks without a baseline must not be fatal, got %v", regs)
	}
	if got := unmatched(base, fresh); len(got) != 1 || got[0] != "new" {
		t.Fatalf("unmatched = %v, want [new]", got)
	}
}

func TestDecodeToleratesBenchjsonExtras(t *testing.T) {
	const in = `[{"name":"x","iterations":2,"ns_per_op":5,"bytes_per_op":7,"allocs_per_op":3,"params":{"workers":"8"}}]`
	rs, err := decode(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Name != "x" || rs[0].AllocsPerOp != 3 {
		t.Fatalf("decode = %+v", rs)
	}
}

// TestImprovementPasses pins that getting faster/leaner never trips the guard.
func TestImprovementPasses(t *testing.T) {
	base := []result{res("a", 1000)}
	if regs := compare(base, []result{res("a", 10)}, 1.10); len(regs) != 0 {
		t.Fatalf("improvement flagged as regression: %v", regs)
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		vs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{9, 1}, 5},
		{[]float64{30, 10, 20}, 20},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(append([]float64(nil), tc.vs...)); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.vs, got, tc.want)
		}
	}
}

// TestAggregateCollapsesRepeatedRuns pins the -count N flake fix: a single
// outlier sample (a GC cycle landing inside a 2-iteration window) must not
// survive the median, so one bimodal run out of three stays within budget.
func TestAggregateCollapsesRepeatedRuns(t *testing.T) {
	fresh := aggregate([]result{
		res("round/workers=8", 14618),
		res("round/workers=8", 21000), // the bimodal outlier
		res("round/workers=8", 14620),
		res("other", 5),
	})
	if len(fresh) != 2 {
		t.Fatalf("aggregate kept %d entries, want 2: %+v", len(fresh), fresh)
	}
	if fresh[0].Name != "round/workers=8" || fresh[1].Name != "other" {
		t.Fatalf("aggregate reordered entries: %+v", fresh)
	}
	if fresh[0].AllocsPerOp != 14620 {
		t.Fatalf("median allocs = %v, want 14620 (outlier must not survive)", fresh[0].AllocsPerOp)
	}
	base := []result{res("round/workers=8", 14618), res("other", 5)}
	if regs := compare(aggregate(base), fresh, 1.10); len(regs) != 0 {
		t.Fatalf("median-of-3 with one outlier sample flagged as regression: %v", regs)
	}
}

// TestAggregateSingleRunsUnchanged pins that -count 1 output is untouched.
func TestAggregateSingleRunsUnchanged(t *testing.T) {
	in := []result{res("a", 10), res("b", 0)}
	out := aggregate(in)
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("aggregate changed single-run results: %+v -> %+v", in, out)
	}
}

// TestDecodeRejectsUngatedInput: each input below would let any regression
// pass — an entry with no name, a negative figure (a baseline of -1 allocs
// makes every ratio negative), or trailing data after the array.
func TestDecodeRejectsUngatedInput(t *testing.T) {
	for _, in := range []string{
		`[{"name":"","allocs_per_op":3}]`,
		`[{"name":"a","allocs_per_op":-1}]`,
		`[{"name":"a","ns_per_op":-5,"allocs_per_op":3}]`,
		`[{"name":"a","allocs_per_op":3}] [{"name":"a","allocs_per_op":1}]`,
		`[{"name":"a","allocs_per_op":3}]x`,
	} {
		if rs, err := decode(strings.NewReader(in)); err == nil {
			t.Errorf("decode(%s) = %+v, want an error", in, rs)
		}
	}
	if _, err := decode(strings.NewReader("[{\"name\":\"a\",\"allocs_per_op\":3}]\n")); err != nil {
		t.Errorf("a trailing newline is not trailing data: %v", err)
	}
}

// TestCheckNeedsAMatchingBaseline: a 137x regression against an empty or
// unrelated baseline fails, because nothing gated it.
func TestCheckNeedsAMatchingBaseline(t *testing.T) {
	fresh := []result{res("a", 13700)}
	for _, base := range [][]result{nil, {res("other", 100)}} {
		if err := check(base, fresh, 1.10, io.Discard); err == nil || !strings.Contains(err.Error(), "matches") {
			t.Errorf("check against %v = %v, want a no-match error", base, err)
		}
	}
	if err := check([]result{res("a", 100)}, fresh, 1.10, io.Discard); err == nil || !strings.Contains(err.Error(), "ALLOC REGRESSION") {
		t.Errorf("check = %v, want the regression", err)
	}
	if err := check([]result{res("a", 100)}, []result{res("a", 100), res("new", 5)}, 1.10, io.Discard); err != nil {
		t.Errorf("check = %v, want a pass with one benchmark skipped", err)
	}
	if err := check([]result{res("a", 100)}, nil, 1.10, io.Discard); err == nil {
		t.Error("check passed with no fresh results")
	}
}

// FuzzDecode: every input decode accepts yields named, non-negative entries
// that aggregate, unmatched and compare handle without panicking, and that
// compare against themselves without a regression. Seeded with the committed
// round snapshot.
func FuzzDecode(f *testing.F) {
	snap, err := os.ReadFile("../../bench/BENCH_round.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"name":"a","allocs_per_op":-1}]`))
	f.Add([]byte(`[{"name":"a","allocs_per_op":0},{"name":"a","allocs_per_op":2}] `))
	f.Fuzz(func(t *testing.T, b []byte) {
		rs, err := decode(bytes.NewReader(b))
		if err != nil {
			return
		}
		agg := aggregate(rs)
		for _, r := range append(rs, agg...) {
			if r.Name == "" || !(r.NsPerOp >= 0) || !(r.AllocsPerOp >= 0) {
				t.Fatalf("accepted entry %+v", r)
			}
		}
		if got := unmatched(agg, rs); len(got) != 0 {
			t.Fatalf("unmatched(aggregate(rs), rs) = %v", got)
		}
		if regs := compare(agg, agg, 1.10); len(regs) != 0 {
			t.Fatalf("a snapshot regressed against itself: %v", regs)
		}
		compare(rs, agg, 1.10)
	})
}
