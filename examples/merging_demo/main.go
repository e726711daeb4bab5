// Merging demo: a walk through Flux's adaptive merging pipeline (§5 of the
// paper) on a single participant — quantized profiling, adaptive per-layer
// budgets, fused similarity clustering, importance-weighted merging, and
// gate re-routing — with before/after memory and output-error numbers.
//
// Unlike the other examples, this one deliberately reaches below the public
// SDK into the internal packages: it demonstrates the §5 machinery itself,
// not a federated deployment. Use the root flux package (see
// examples/quickstart) for anything that runs rounds.
package main

import (
	"fmt"
	"log"

	flux "repro"
	"repro/internal/data"
	"repro/internal/flux/assign"
	"repro/internal/flux/merge"
	"repro/internal/flux/profile"
	"repro/internal/moe"
	"repro/internal/quant"
	"repro/internal/tensor"
)

func main() {
	global, err := flux.BaseModel("llama", 250)
	if err != nil {
		log.Fatal(err)
	}
	p := data.Dolly()
	ds := data.Generate(p, global.Cfg.VocabSize, 30, tensor.Named("merging-demo"))

	// 1. Quantization-based profiling (§4.1): cheap activation statistics.
	prof := profile.Profiler{Bits: quant.Bits4, TrackSamples: true}
	res := prof.Run(global, ds.Samples)
	fmt.Println("1. profiled", res.Tokens, "tokens with a", res.Bits, "model")
	for l := 0; l < global.Cfg.Layers(); l++ {
		fmt.Printf("   layer %d activation variance: %.5f\n", l, res.Stats.LayerVariance(l))
	}

	// 2. Choose tuning experts (here: top utility seeded by frequency).
	table := assign.NewUtilityTable(res.Stats)
	a := assign.Assign(table, global.Cfg.ExpertsPerLayer, 8, 1.0, tensor.Named("demo-assign"))
	tuning := a.Tuning(global.Cfg.Layers())
	fmt.Println("2. tuning experts per layer:", tuning)

	// 3. Adaptive budgets + fused clustering + importance merging (§5).
	plan, err := merge.BuildPlan(global, res.Stats, tuning, 14, merge.DefaultOptions(), tensor.Named("demo-merge"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("3. per-layer merged-expert budgets (Eq. 1):", plan.Budgets)

	// 4. Build the compact local model; the gate is re-routed automatically.
	local, err := moe.CustomizeInto(nil, global, plan.Specs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("4. model size: %d -> %d bytes (%.1f%% of full)\n",
		global.MemoryBytes(), local.MemoryBytes(),
		100*float64(local.MemoryBytes())/float64(global.MemoryBytes()))
	for l, layer := range local.Layers {
		fmt.Printf("   layer %d: %d experts serve %d original ids (routing %v)\n",
			l, len(layer.Experts), layer.OrigExperts, layer.Routing)
	}

	// 5. How close is the compact model to the full one?
	var seqs [][]int
	for _, s := range ds.Samples[:12] {
		seq, _ := s.FullSequence()
		seqs = append(seqs, seq)
	}
	fmt.Printf("5. output error (cosine distance) vs full model: %.4f\n",
		merge.OutputError(local, global, seqs))

	// Contrast: discarding instead of merging.
	discard := local.CloneInto(nil)
	for _, layer := range discard.Layers {
		for _, e := range layer.Experts {
			if len(e.MergedFrom) > 0 {
				e.W1.Zero()
				e.W2.Zero()
				for j := range e.B1 {
					e.B1[j] = 0
				}
				for j := range e.B2 {
					e.B2[j] = 0
				}
			}
		}
	}
	fmt.Printf("   output error if non-tuning experts were DISCARDED: %.4f\n",
		merge.OutputError(discard, global, seqs))
}
