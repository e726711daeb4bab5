package moe

import (
	"fmt"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// LayerSpec describes how one layer of a participant-local model is built
// from the global model: which original experts are kept at full size as
// tuning experts, and how the remaining (non-tuning) experts are grouped
// into merged, frozen experts.
//
// Every original expert index in the layer must appear exactly once, either
// in Tuning or in one MergeGroup. MergeWeights supplies the α_e coefficients
// of Eq. (2); missing entries default to 1 (plain averaging).
type LayerSpec struct {
	Tuning       []int
	MergeGroups  [][]int
	MergeWeights map[int]float64
}

// Validate checks that spec covers each of n original experts exactly once.
func (s LayerSpec) Validate(n int) error {
	seen := make([]bool, n)
	mark := func(id int) error {
		if id < 0 || id >= n {
			return fmt.Errorf("moe: expert id %d out of range [0,%d)", id, n)
		}
		if seen[id] {
			return fmt.Errorf("moe: expert id %d listed twice", id)
		}
		seen[id] = true
		return nil
	}
	for _, id := range s.Tuning {
		if err := mark(id); err != nil {
			return err
		}
	}
	for _, grp := range s.MergeGroups {
		if len(grp) == 0 {
			return fmt.Errorf("moe: empty merge group")
		}
		for _, id := range grp {
			if err := mark(id); err != nil {
				return err
			}
		}
	}
	for id, ok := range seen {
		if !ok {
			return fmt.Errorf("moe: expert id %d not covered by spec", id)
		}
	}
	return nil
}

// MergeExperts returns a new frozen expert whose parameters are the
// weighted average of the given experts (Eq. (2)). Weights are normalized
// internally; a zero weight sum falls back to uniform averaging.
func MergeExperts(experts []*Expert, weights []float64) *Expert {
	if len(experts) == 0 {
		panic("moe: merge of zero experts")
	}
	if len(experts) != len(weights) {
		panic("moe: experts/weights length mismatch")
	}
	var sum float64
	for _, w := range weights {
		sum += w
	}
	norm := make([]float64, len(weights))
	if sum <= 0 {
		for i := range norm {
			norm[i] = 1 / float64(len(weights))
		}
	} else {
		for i, w := range weights {
			norm[i] = w / sum
		}
	}
	out := experts[0].Clone()
	out.W1.Zero()
	out.W2.Zero()
	for i := range out.B1 {
		out.B1[i] = 0
	}
	for i := range out.B2 {
		out.B2[i] = 0
	}
	out.Frozen = true
	out.MergedFrom = nil
	for i, e := range experts {
		w := norm[i]
		out.W1.AddScaled(e.W1, w)
		out.W2.AddScaled(e.W2, w)
		for j, v := range e.B1 {
			out.B1[j] += w * v
		}
		for j, v := range e.B2 {
			out.B2[j] += w * v
		}
	}
	return out
}

// Customize builds a participant-local compact model from the global model:
// tuning experts are deep-copied at full size and trainable; each merge
// group becomes one frozen merged expert; the gate is re-routed so original
// expert indices resolve to their new destinations (§7 "gate re-routing").
//
// The returned model shares no parameter storage with global.
func Customize(global *Model, specs []LayerSpec) (*Model, error) {
	if len(specs) != len(global.Layers) {
		return nil, fmt.Errorf("moe: %d specs for %d layers", len(specs), len(global.Layers))
	}
	local := &Model{
		Cfg:    global.Cfg,
		Embed:  global.Embed.Clone(),
		Head:   global.Head.Clone(),
		Layers: make([]*Layer, len(global.Layers)),
	}
	local.Cfg.ExpertsPerLayer = append([]int(nil), global.Cfg.ExpertsPerLayer...)
	for l, layer := range global.Layers {
		spec := specs[l]
		if err := spec.Validate(layer.OrigExperts); err != nil {
			return nil, fmt.Errorf("layer %d: %w", l, err)
		}
		nl := &Layer{
			Wq:          layer.Wq.Clone(),
			Wk:          layer.Wk.Clone(),
			Wv:          layer.Wv.Clone(),
			Gate:        layer.Gate.Clone(),
			OrigExperts: layer.OrigExperts,
			Routing:     make([]int, layer.OrigExperts),
			TopK:        layer.TopK,
		}
		for _, id := range spec.Tuning {
			e := layer.Experts[layer.Routing[id]].Clone()
			e.Frozen = false
			e.MergedFrom = nil
			nl.Routing[id] = len(nl.Experts)
			nl.Experts = append(nl.Experts, e)
		}
		for _, grp := range spec.MergeGroups {
			members := make([]*Expert, len(grp))
			weights := make([]float64, len(grp))
			for i, id := range grp {
				members[i] = layer.Experts[layer.Routing[id]]
				w := 1.0
				if spec.MergeWeights != nil {
					if mw, ok := spec.MergeWeights[id]; ok {
						w = mw
					}
				}
				weights[i] = w
			}
			merged := MergeExperts(members, weights)
			merged.MergedFrom = append([]int(nil), grp...)
			pos := len(nl.Experts)
			nl.Experts = append(nl.Experts, merged)
			for _, id := range grp {
				nl.Routing[id] = pos
			}
		}
		local.Cfg.ExpertsPerLayer[l] = len(nl.Experts)
		local.Layers[l] = nl
	}
	return local, nil
}

// Quantize round-trips m's expert, gate, attention, and embedding weights
// through b-bit quantization in place. Applied to a scratch-held CloneInto of
// the global model it yields the profiling model of §4.1 — real forward
// passes with real rounding error — without allocating a whole model per
// round.
func Quantize(m *Model, b quant.Bits) {
	rt := func(mat *tensor.Matrix) { quant.RoundTripInPlace(mat, b) }
	rt(m.Embed)
	rt(m.Head)
	for _, layer := range m.Layers {
		rt(layer.Wq)
		rt(layer.Wk)
		rt(layer.Wv)
		rt(layer.Gate)
		for _, e := range layer.Experts {
			rt(e.W1)
			rt(e.W2)
		}
	}
}
