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

// MergeExperts writes into dst the frozen expert whose parameters are the
// weighted average of the given experts (Eq. (2)) and returns it; a nil dst
// allocates a new expert, any other has its storage reused. Weights are
// normalized internally; a zero weight sum falls back to uniform averaging.
// dst starts at +0 and accumulates the members in order, each scaled by its
// normalized weight. The result lists no MergedFrom ids.
func MergeExperts(dst *Expert, experts []*Expert, weights []float64) *Expert {
	if len(experts) == 0 {
		panic("moe: merge of zero experts")
	}
	if len(experts) != len(weights) {
		panic("moe: experts/weights length mismatch")
	}
	if dst == nil {
		dst = &Expert{}
	}
	var sum float64
	for _, w := range weights {
		sum += w
	}
	first := experts[0]
	dst.W1 = tensor.Grow(dst.W1, first.W1.Rows, first.W1.Cols)
	dst.W2 = tensor.Grow(dst.W2, first.W2.Rows, first.W2.Cols)
	dst.B1 = growFloats(dst.B1, len(first.B1))
	dst.B2 = growFloats(dst.B2, len(first.B2))
	dst.W1.Zero()
	dst.W2.Zero()
	clear(dst.B1)
	clear(dst.B2)
	dst.Frozen = true
	dst.MergedFrom = dst.MergedFrom[:0]
	for i, e := range experts {
		w := 1 / float64(len(weights))
		if sum > 0 {
			w = weights[i] / sum
		}
		dst.W1.AddScaled(e.W1, w)
		dst.W2.AddScaled(e.W2, w)
		tensor.Axpy(w, e.B1, dst.B1)
		tensor.Axpy(w, e.B2, dst.B2)
	}
	return dst
}

// Customize builds a participant-local compact model from the global model:
// tuning experts are deep-copied at full size and trainable; each merge
// group becomes one frozen merged expert; the gate is re-routed so original
// expert indices resolve to their new destinations (§7 "gate re-routing").
//
// The returned model shares no parameter storage with global. It is
// CustomizeInto with no destination.
func Customize(global *Model, specs []LayerSpec) (*Model, error) {
	return CustomizeInto(nil, global, specs)
}

// CustomizeInto is Customize building into dst, a model nothing else reads
// (nil allocates a fresh one), and returns the result. Every parameter buffer
// of dst is reused whatever layout it held before: the embedding, head,
// attention and gate matrices are overwritten, and each layer's experts are
// rebuilt in place by position, whether an expert was tuning or merged last
// time, with new ones allocated only where the layer now has more. The bytes
// equal a fresh Customize's (TestCustomizeIntoWarmModel). On a spec error dst
// is left untouched.
func CustomizeInto(dst, global *Model, specs []LayerSpec) (*Model, error) {
	if len(specs) != len(global.Layers) {
		return nil, fmt.Errorf("moe: %d specs for %d layers", len(specs), len(global.Layers))
	}
	for l, layer := range global.Layers {
		if err := specs[l].Validate(layer.OrigExperts); err != nil {
			return nil, fmt.Errorf("layer %d: %w", l, err)
		}
	}
	local := dst
	if local == nil {
		local = &Model{}
	}
	epl := local.Cfg.ExpertsPerLayer
	local.Cfg = global.Cfg
	local.Cfg.ExpertsPerLayer = append(epl[:0], global.Cfg.ExpertsPerLayer...)
	local.Embed = copyMatrix(local.Embed, global.Embed)
	local.Head = copyMatrix(local.Head, global.Head)
	var members []*Expert // one merge group's experts and weights
	var weights []float64
	for len(local.Layers) < len(global.Layers) {
		local.Layers = append(local.Layers, &Layer{})
	}
	local.Layers = local.Layers[:len(global.Layers)]
	for l, layer := range global.Layers {
		spec := specs[l]
		nl := local.Layers[l]
		nl.Wq = copyMatrix(nl.Wq, layer.Wq)
		nl.Wk = copyMatrix(nl.Wk, layer.Wk)
		nl.Wv = copyMatrix(nl.Wv, layer.Wv)
		nl.Gate = copyMatrix(nl.Gate, layer.Gate)
		nl.OrigExperts = layer.OrigExperts
		nl.TopK = layer.TopK
		nl.Routing = growInts(nl.Routing, layer.OrigExperts)
		// Last layout's experts, reused by position; slots past its end
		// (kept by an earlier, larger layout) are reused too.
		pool := nl.Experts[:cap(nl.Experts)]
		nl.Experts = nl.Experts[:0]
		next := func() *Expert {
			k := len(nl.Experts)
			var e *Expert
			if k < len(pool) && pool[k] != nil {
				e = pool[k]
			} else {
				e = &Expert{}
			}
			nl.Experts = append(nl.Experts, e)
			return e
		}
		for _, id := range spec.Tuning {
			src := layer.Experts[layer.Routing[id]]
			e := next()
			e.W1 = copyMatrix(e.W1, src.W1)
			e.W2 = copyMatrix(e.W2, src.W2)
			e.B1 = append(e.B1[:0], src.B1...)
			e.B2 = append(e.B2[:0], src.B2...)
			e.Frozen = false
			e.MergedFrom = e.MergedFrom[:0]
			nl.Routing[id] = len(nl.Experts) - 1
		}
		for _, grp := range spec.MergeGroups {
			members, weights = members[:0], weights[:0]
			for _, id := range grp {
				w := 1.0
				if mw, ok := spec.MergeWeights[id]; ok {
					w = mw
				}
				members = append(members, layer.Experts[layer.Routing[id]])
				weights = append(weights, w)
			}
			e := MergeExperts(next(), members, weights)
			e.MergedFrom = append(e.MergedFrom, grp...)
			for _, id := range grp {
				nl.Routing[id] = len(nl.Experts) - 1
			}
		}
		local.Cfg.ExpertsPerLayer[l] = len(nl.Experts)
	}
	return local, nil
}

// copyMatrix copies src into dst, reusing dst's storage when it has room,
// and returns the copy.
func copyMatrix(dst, src *tensor.Matrix) *tensor.Matrix {
	dst = tensor.Grow(dst, src.Rows, src.Cols)
	dst.CopyFrom(src)
	return dst
}

// Quantize round-trips m's expert, gate, attention, and embedding weights
// through b-bit quantization in place. Applied to a scratch-held CloneInto of
// the global model it yields the profiling model of §4.1 — real forward
// passes with real rounding error — without allocating a whole model per
// round.
func Quantize(m *Model, b quant.Bits) {
	for u := 0; u < QuantUnits(m); u++ {
		QuantizeUnit(m, u, b)
	}
}

// QuantUnits is the number of units Quantize splits m into: the embedding,
// the head, and one per layer. quant.RoundTripInPlace scales every row on its
// own, so no unit's result depends on another's and units may be quantized
// concurrently, in any order, with the same bits as Quantize.
func QuantUnits(m *Model) int { return 2 + len(m.Layers) }

// QuantizeUnit round-trips unit u of m (see QuantUnits) through b-bit
// quantization in place: unit 0 is the embedding, unit 1 the head, and unit
// 2+l layer l's attention projections, gate and expert FFN weights. Expert
// biases stay at full precision.
func QuantizeUnit(m *Model, u int, b quant.Bits) {
	rt := func(mat *tensor.Matrix) { quant.RoundTripInPlace(mat, b) }
	switch u {
	case 0:
		rt(m.Embed)
	case 1:
		rt(m.Head)
	default:
		layer := m.Layers[u-2]
		rt(layer.Wq)
		rt(layer.Wk)
		rt(layer.Wv)
		rt(layer.Gate)
		for _, e := range layer.Experts {
			e.quantize(b)
		}
	}
}

// QuantizeExpertFrom overwrites dst, an expert of src's shape, with src
// round-tripped the way QuantizeUnit round-trips an expert: W1 and W2
// through b-bit quantization, the biases copied at full precision. It is
// what re-quantizes one expert of a quantized model after the expert it was
// built from changed, bit-identical to quantizing a fresh copy of the model.
func QuantizeExpertFrom(dst, src *Expert, b quant.Bits) {
	dst.W1.CopyFrom(src.W1)
	dst.W2.CopyFrom(src.W2)
	copy(dst.B1, src.B1)
	copy(dst.B2, src.B2)
	dst.quantize(b)
}

// quantize round-trips e's weight matrices through b-bit quantization in
// place; its biases stay at full precision.
func (e *Expert) quantize(b quant.Bits) {
	quant.RoundTripInPlace(e.W1, b)
	quant.RoundTripInPlace(e.W2, b)
}
