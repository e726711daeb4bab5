package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRougeLIdentical(t *testing.T) {
	s := []int{1, 2, 3, 4}
	if r := RougeL(s, s); math.Abs(r-1) > 1e-12 {
		t.Fatalf("identical rouge = %v", r)
	}
}

func TestRougeLDisjoint(t *testing.T) {
	if r := RougeL([]int{1, 2}, []int{3, 4}); r != 0 {
		t.Fatalf("disjoint rouge = %v", r)
	}
}

func TestRougeLEmpty(t *testing.T) {
	if RougeL(nil, []int{1}) != 0 || RougeL([]int{1}, nil) != 0 {
		t.Fatal("empty rouge should be 0")
	}
}

func TestRougeLKnown(t *testing.T) {
	// cand = [1,2,3,9], ref = [1,2,3,4]: LCS=3, P=R=3/4, F1=3/4.
	if r := RougeL([]int{1, 2, 3, 9}, []int{1, 2, 3, 4}); math.Abs(r-0.75) > 1e-12 {
		t.Fatalf("rouge = %v want 0.75", r)
	}
	// Subsequence, not substring: [1,3] in [1,2,3] → LCS 2.
	r := RougeL([]int{1, 3}, []int{1, 2, 3})
	want := 2 * (2.0 / 2) * (2.0 / 3) / ((2.0 / 2) + (2.0 / 3))
	if math.Abs(r-want) > 1e-12 {
		t.Fatalf("rouge = %v want %v", r, want)
	}
}

func TestRougeLBoundsAndSymmetryOfPerfect(t *testing.T) {
	f := func(a, b []uint8) bool {
		ca := make([]int, len(a))
		cb := make([]int, len(b))
		for i, v := range a {
			ca[i] = int(v % 8)
		}
		for i, v := range b {
			cb[i] = int(v % 8)
		}
		r := RougeL(ca, cb)
		return r >= 0 && r <= 1 && !math.IsNaN(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRelativeAccuracy(t *testing.T) {
	if r := RelativeAccuracy(0.25, 0.5); r != 0.5 {
		t.Fatalf("rel acc = %v", r)
	}
	if r := RelativeAccuracy(2, 0.5); r != 1.05 {
		t.Fatalf("over-target should clamp: %v", r)
	}
	if RelativeAccuracy(0.5, 0) != 0 {
		t.Fatal("zero target should be 0")
	}
	if RelativeAccuracy(-1, 0.5) != 0 {
		t.Fatal("negative score should clamp to 0")
	}
}

func TestTracker(t *testing.T) {
	var tr Tracker
	if _, ok := tr.TimeToTarget(0.5); ok {
		t.Fatal("empty tracker reached target")
	}
	tr.Record(0, 0.1, 0.2)
	tr.Record(1, 0.2, 0.45)
	tr.Record(2, 0.3, 0.55)
	tr.Record(3, 0.4, 0.52)
	tm, ok := tr.TimeToTarget(0.5)
	if !ok || tm != 0.3 {
		t.Fatalf("tta = %v ok=%v", tm, ok)
	}
	if tr.Best() != 0.55 {
		t.Fatalf("best = %v", tr.Best())
	}
	if tr.Final() != 0.52 {
		t.Fatalf("final = %v", tr.Final())
	}
}

func TestCDF(t *testing.T) {
	xs, ps := CDF([]float64{3, 1, 2})
	if len(xs) != 3 || xs[0] != 1 || xs[2] != 3 {
		t.Fatalf("cdf xs = %v", xs)
	}
	if ps[2] != 1 || ps[0] <= 0 {
		t.Fatalf("cdf ps = %v", ps)
	}
	if xs, ps := CDF(nil); xs != nil || ps != nil {
		t.Fatal("empty cdf should be nil")
	}
}
