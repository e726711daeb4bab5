package fed

import (
	"math"
	"testing"

	"repro/internal/moe"
	"repro/internal/tensor"
)

// aggregateOracle is Aggregate as a sum into a fresh buffer per expert:
// every update's weighted parameters added in update order from +0, scaled
// by 1/Σw, then loaded into the expert. Aggregate accumulates in the expert's
// own storage instead and must give the same bits.
func aggregateOracle(global *moe.Model, updates []Update) int {
	type acc struct {
		sum    []float64
		weight float64
	}
	accs := make(map[ExpertKey]*acc)
	for _, u := range updates {
		w := u.Weight
		if w <= 0 {
			w = 1
		}
		//fluxvet:unordered per-key accumulators: each expert folds its float sum in update (outer-loop) order
		for key, params := range u.Experts {
			a := accs[key]
			if a == nil {
				a = &acc{sum: make([]float64, len(params))}
				accs[key] = a
			}
			for i, v := range params {
				a.sum[i] += float64(w * v)
			}
			a.weight += w
		}
	}
	//fluxvet:unordered disjoint per-expert writes into the global model
	for key, a := range accs {
		inv := 1 / a.weight
		for i := range a.sum {
			a.sum[i] *= inv
		}
		global.ExpertAt(key.Layer, key.Expert).LoadFlat(a.sum)
	}
	return len(accs)
}

// TestAggregateMatchesOracle pins the in-place FedAvg to the fresh-buffer
// sum bit for bit over the cases its accumulation order could differ in:
// keys repeated across updates (three updates share one expert, two share
// another), weights of 0 and below (each counts as 1), fractional and large
// weights, ±0 and subnormal parameters, and experts no update names, which
// must keep their bits.
func TestAggregateMatchesOracle(t *testing.T) {
	cfg := smallModelCfg()
	base := moe.MustNew(cfg, tensor.NewRNG(21))
	n := base.ExpertAt(0, 0).Params()
	g := tensor.NewRNG(22)
	params := func() []float64 {
		p := make([]float64, n)
		for i := range p {
			switch g.Intn(8) {
			case 0:
				p[i] = math.Copysign(0, -1)
			case 1:
				p[i] = 0
			case 2:
				p[i] = 3 * math.SmallestNonzeroFloat64
			default:
				p[i] = g.Norm()
			}
		}
		return p
	}
	a, b, c := ExpertKey{Layer: 0, Expert: 1}, ExpertKey{Layer: 1, Expert: 3}, ExpertKey{Layer: 2, Expert: 0}
	updates := []Update{
		{Weight: 3, Experts: map[ExpertKey][]float64{a: params(), b: params()}},
		{Weight: 0, Experts: map[ExpertKey][]float64{a: params()}},
		{Weight: -2, Experts: map[ExpertKey][]float64{b: params(), c: params()}},
		{Weight: 0.1, Experts: map[ExpertKey][]float64{a: params()}},
		{Weight: 1e6, Experts: map[ExpertKey][]float64{}},
	}
	for cut := 0; cut <= len(updates); cut++ {
		got, want := base.CloneInto(nil), base.CloneInto(nil)
		nGot, nWant := Aggregate(got, updates[:cut]), aggregateOracle(want, updates[:cut])
		if nGot != nWant {
			t.Fatalf("%d updates: Aggregate updated %d experts, the oracle %d", cut, nGot, nWant)
		}
		for l, layer := range got.Layers {
			for e := range layer.Experts {
				gb, wb := got.ExpertAt(l, e).FlattenTo(nil), want.ExpertAt(l, e).FlattenTo(nil)
				for i := range wb {
					if math.Float64bits(gb[i]) != math.Float64bits(wb[i]) {
						t.Fatalf("%d updates: layer %d expert %d parameter %d is %#x, want %#x",
							cut, l, e, i, math.Float64bits(gb[i]), math.Float64bits(wb[i]))
					}
				}
			}
		}
	}
}

// BenchmarkAggregate is the server's FedAvg over two full-model updates of
// the LLaMA stand-in (every expert, as fmd uploads them) into a kept global
// model. It allocates no per-expert sum; CI gates its allocs/op through
// bench/BENCH_micro.json.
func BenchmarkAggregate(b *testing.B) {
	cfg := moe.SimConfigLLaMATrain()
	global := moe.MustNew(cfg, tensor.Named("bench-aggregate"))
	updates := []Update{
		ExtractUpdate(moe.MustNew(cfg, tensor.Named("bench-aggregate-0")), 0, 6, IdentityTuning(cfg)),
		ExtractUpdate(moe.MustNew(cfg, tensor.Named("bench-aggregate-1")), 1, 6, IdentityTuning(cfg)),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Aggregate(global, updates)
	}
}
