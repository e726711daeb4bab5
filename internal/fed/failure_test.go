package fed

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/moe"
	"repro/internal/tensor"
)

// TestAggregateTolerantOfDropout models participant failure: a round where
// only a subset of participants report must still aggregate cleanly,
// leaving experts touched by nobody untouched and averaging the rest over
// the survivors only.
func TestAggregateTolerantOfDropout(t *testing.T) {
	g := tensor.NewRNG(10)
	global := moe.MustNew(moe.Uniform("dropout", 32, 8, 12, 2, 4, 2, 16), g)
	key := ExpertKey{Layer: 0, Expert: 0}
	n := len(global.ExpertAt(0, 0).FlattenTo(nil))
	mk := func(val float64) Update {
		params := make([]float64, n)
		for i := range params {
			params[i] = val
		}
		return Update{Weight: 1, Experts: map[ExpertKey][]float64{key: params}}
	}
	// 3 of 10 participants survive.
	updated := Aggregate(global, []Update{mk(1), mk(2), mk(3)})
	if updated != 1 {
		t.Fatalf("updated %d experts", updated)
	}
	if got := global.ExpertAt(0, 0).W1.At(0, 0); math.Abs(got-2) > 1e-12 {
		t.Fatalf("survivor average = %v want 2", got)
	}
	// A fully empty round is a no-op.
	snapshot := global.CloneInto(nil)
	if Aggregate(global, nil) != 0 {
		t.Fatal("empty aggregation should touch nothing")
	}
	if !global.ExpertAt(0, 0).W1.Equal(snapshot.ExpertAt(0, 0).W1, 0) {
		t.Fatal("empty aggregation mutated the model")
	}
}

// Property: FedAvg of identical payloads is idempotent regardless of
// weights, and the result is always within the convex hull of the inputs.
func TestAggregateConvexHullProperty(t *testing.T) {
	g := tensor.NewRNG(11)
	global := moe.MustNew(moe.Uniform("hull", 32, 8, 12, 2, 4, 2, 16), g)
	n := len(global.ExpertAt(0, 0).FlattenTo(nil))
	f := func(vals []float64, weights []float64) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > 6 {
			vals = vals[:6]
		}
		var updates []Update
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			v = math.Mod(v, 100)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
			w := 1.0
			if i < len(weights) && !math.IsNaN(weights[i]) && !math.IsInf(weights[i], 0) && weights[i] > 0 {
				w = math.Mod(weights[i], 10) + 0.1
			}
			params := make([]float64, n)
			for j := range params {
				params[j] = v
			}
			updates = append(updates, Update{Weight: w,
				Experts: map[ExpertKey][]float64{{Layer: 1, Expert: 2}: params}})
		}
		Aggregate(global, updates)
		got := global.ExpertAt(1, 2).W1.At(0, 0)
		return got >= lo-1e-9 && got <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
