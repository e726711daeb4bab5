package fed

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/data"
	"repro/internal/moe"
	"repro/internal/tensor"
)

// Base-model cache. Pre-training the base model is the most expensive part
// of environment construction and is identical for every dataset, method,
// and participant count using the same architecture, so it is computed once
// per (config, pretrain settings) and cloned.
var (
	baseMu    sync.Mutex
	baseCache = make(map[string]*moe.Model)
)

// BaseModel returns a pre-trained base model for the architecture,
// deterministic in the config name and pre-training settings only. It
// mirrors the paper's setting: a capable pre-trained LLM (trained on a
// generic corpus disjoint from every fine-tuning dataset) that participants
// adapt by expert-only fine-tuning.
//
// The returned model is a private clone; callers may mutate it freely.
func BaseModel(modelCfg moe.Config, cfg Config) (*moe.Model, error) {
	return BaseModelContext(context.Background(), modelCfg, cfg)
}

// BaseModelContext is BaseModel with cancellation: pre-training polls the
// context between steps, and a canceled construction returns the context's
// error without populating the cache.
//
// Pre-training runs each step's batch over cfg.Workers goroutines (zero
// meaning GOMAXPROCS, clamped to the batch) as moe.PretrainContext's
// wavefront, which is bit-identical at every width: the cache key leaves
// the width out, so a model cached at one width serves every other.
func BaseModelContext(ctx context.Context, modelCfg moe.Config, cfg Config) (*moe.Model, error) {
	key := fmt.Sprintf("%s/%d/%d/%g", modelCfg.Name, cfg.PretrainSteps, cfg.PretrainBatch, cfg.PretrainLR)
	baseMu.Lock()
	defer baseMu.Unlock()
	if m, ok := baseCache[key]; ok {
		return m.CloneInto(nil), nil
	}
	model, err := moe.New(modelCfg, tensor.Named("base-model/"+modelCfg.Name))
	if err != nil {
		return nil, err
	}
	generic := data.Generate(data.Generic(), modelCfg.VocabSize, 300,
		tensor.Named("pretrain-corpus/"+modelCfg.Name))
	sampler := func(g *tensor.RNG) []int {
		s := generic.Samples[g.Intn(len(generic.Samples))]
		seq, _ := s.FullSequence()
		return seq
	}
	if _, err := moe.PretrainContext(ctx, model, sampler, cfg.PretrainSteps, cfg.PretrainBatch, cfg.PretrainLR,
		tensor.Named("pretrain-run/"+modelCfg.Name), poolWidth(cfg.Workers, cfg.PretrainBatch)); err != nil {
		return nil, err // partially trained; do not cache
	}
	baseCache[key] = model
	return model.CloneInto(nil), nil
}

// ResetBaseModelCache clears the cache; tests use it to measure cold-start
// behavior.
func ResetBaseModelCache() {
	baseMu.Lock()
	defer baseMu.Unlock()
	baseCache = make(map[string]*moe.Model)
}
