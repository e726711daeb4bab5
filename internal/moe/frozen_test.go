package moe

import (
	"fmt"
	"testing"

	"repro/internal/tensor"
)

// randomPlan draws a Customize plan: in layer l each expert is a tuning
// expert with probability tuneProb(l, layers), and the rest are dealt into
// one to three merge groups with random weights.
func randomPlan(cfg Config, g *tensor.RNG, tuneProb func(l, layers int) float64) []LayerSpec {
	specs := make([]LayerSpec, cfg.Layers())
	for l, n := range cfg.ExpertsPerLayer {
		spec := LayerSpec{MergeWeights: map[int]float64{}}
		var rest []int
		for e := 0; e < n; e++ {
			if g.Float64() < tuneProb(l, cfg.Layers()) {
				spec.Tuning = append(spec.Tuning, e)
			} else {
				rest = append(rest, e)
				spec.MergeWeights[e] = 0.25 + g.Float64()
			}
		}
		groups := make([][]int, 1+g.Intn(3))
		for _, e := range rest {
			k := g.Intn(len(groups))
			groups[k] = append(groups[k], e)
		}
		for _, grp := range groups {
			if len(grp) > 0 {
				spec.MergeGroups = append(spec.MergeGroups, grp)
			}
		}
		specs[l] = spec
	}
	return specs
}

// TestFrozenBackwardBitIdentity pins what the frozen-aware backward pass
// skips against a pass that skips nothing. For random Customize plans on
// both stand-ins, the oracle is the same ForwardBackwardWS on a clone with
// every Frozen flag cleared — every expert accumulates parameter gradients
// and the dL/dx chain runs through every layer above layer 0. The loss, each
// originally trainable expert's gradient and token-gradient counters, and
// the embedding/head gradients must agree bit for bit; a frozen expert must
// have no gradient buffer and no counters; and the customized model's warm
// pass must not allocate.
func TestFrozenBackwardBitIdentity(t *testing.T) {
	type plan struct {
		name       string
		tuneProb   func(l, layers int) float64
		trainEmbed bool
	}
	uniform := func(p float64) func(int, int) float64 { return func(int, int) float64 { return p } }
	plans := []plan{
		{"sparse", uniform(0.12), false},
		{"half", uniform(0.5), false},
		{"none-in-layers-0..2", func(l, _ int) float64 {
			if l <= 2 {
				return 0
			}
			return 0.3
		}, false},
		{"top-layer-only", func(l, layers int) float64 {
			if l < layers-1 {
				return 0
			}
			return 0.5
		}, false},
		{"none", uniform(0), false},
		{"all", uniform(1), false},
		{"sparse+embed", uniform(0.12), true},
		{"none+embed", uniform(0), true},
	}
	for _, cfg := range []Config{SimConfigLLaMATrain(), SimConfigDeepSeekTrain()} {
		global := MustNew(cfg, tensor.Named("frozen/"+cfg.Name))
		for pi, p := range plans {
			t.Run(fmt.Sprintf("%s/%s", cfg.Name, p.name), func(t *testing.T) {
				g := tensor.NewRNG(int64(100 + pi))
				local, err := Customize(global, randomPlan(cfg, g, p.tuneProb))
				if err != nil {
					t.Fatal(err)
				}
				oracle := local.Clone()
				for _, layer := range oracle.Layers {
					for _, e := range layer.Experts {
						e.Frozen = false
					}
				}

				ws := NewWorkspace()
				got, want := NewGrads(local, p.trainEmbed), NewGrads(oracle, p.trainEmbed)
				// Gradients accumulate over several sequences, masked and not.
				var seqs [][]int
				for trial := 0; trial < 3; trial++ {
					seq := wsSeq(g, cfg.VocabSize, 4+g.Intn(40))
					seqs = append(seqs, seq)
					var mask []bool
					if trial == 1 {
						mask = make([]bool, len(seq))
						for i := range mask {
							mask[i] = i%3 != 0
						}
					}
					lossGot := local.ForwardBackwardWS(ws, seq, mask, got, nil, -1)
					lossWant := oracle.ForwardBackwardWS(nil, seq, mask, want, nil, -1)
					if lossGot != lossWant {
						t.Fatalf("trial %d: loss %v, oracle %v", trial, lossGot, lossWant)
					}
				}

				trained := 0
				for l, layer := range local.Layers {
					for e, ex := range layer.Experts {
						eg, og := got.Experts[l][e], want.Experts[l][e]
						if ex.Frozen {
							if eg != nil {
								t.Fatalf("layer %d expert %d is frozen but has a gradient buffer", l, e)
							}
							if got.TokenGradCount[l][e] != 0 || got.TokenGradNorm[l][e] != 0 {
								t.Fatalf("layer %d expert %d is frozen but has token-gradient counters", l, e)
							}
							continue
						}
						if got.TokenGradCount[l][e] != want.TokenGradCount[l][e] ||
							got.TokenGradNorm[l][e] != want.TokenGradNorm[l][e] {
							t.Fatalf("layer %d expert %d: token-gradient counters differ from the oracle", l, e)
						}
						if (eg == nil) != (og == nil) {
							t.Fatalf("layer %d expert %d: gradient presence %v, oracle %v", l, e, eg != nil, og != nil)
						}
						if eg == nil {
							continue // never routed to
						}
						trained++
						if !sameBits(eg.W1.Data, og.W1.Data) || !sameBits(eg.B1, og.B1) ||
							!sameBits(eg.W2.Data, og.W2.Data) || !sameBits(eg.B2, og.B2) {
							t.Fatalf("layer %d expert %d: gradient bits differ from the oracle", l, e)
						}
					}
				}
				if p.tuneProb(cfg.Layers()-1, cfg.Layers()) > 0 && trained == 0 {
					t.Fatal("plan trained no expert; the comparison is vacuous")
				}
				if p.trainEmbed {
					if !sameBits(got.Embed.Data, want.Embed.Data) || !sameBits(got.Head.Data, want.Head.Data) {
						t.Fatal("embedding/head gradient bits differ from the oracle")
					}
				}

				if n := testing.AllocsPerRun(5, func() {
					for _, seq := range seqs {
						local.ForwardBackwardWS(ws, seq, nil, got, nil, -1)
					}
				}); n != 0 {
					t.Fatalf("warm ForwardBackwardWS on the customized model allocates %v times per run, want 0", n)
				}
			})
		}
	}
}
