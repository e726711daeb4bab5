package moe

import (
	"sort"

	"repro/internal/tensor"
)

// ActivationStats accumulates expert routing statistics during forward
// passes: per-expert token counts, attention-received mass of routed tokens
// (the ā_e signal of §5.3), and the set of samples whose tokens reached each
// expert (the D_e of §4.1).
//
// Counts are indexed by *original* expert id, so statistics remain comparable
// before and after merging.
type ActivationStats struct {
	Counts  [][]float64 // [layer][origExpert] routed-token count
	AttnSum [][]float64 // [layer][origExpert] sum of attention received
	Tokens  float64     // tokens processed (per layer; same for all layers)

	trackSamples bool
	Samples      []map[int]map[int]struct{} // [layer][origExpert] -> sample-id set
}

// NewActivationStats allocates stats for the given architecture. If
// trackSamples is true, per-expert sample sets are recorded (costs memory,
// needed only for data-selection experiments).
func NewActivationStats(cfg Config, trackSamples bool) *ActivationStats {
	s := &ActivationStats{
		Counts:       make([][]float64, cfg.Layers()),
		AttnSum:      make([][]float64, cfg.Layers()),
		trackSamples: trackSamples,
	}
	if trackSamples {
		s.Samples = make([]map[int]map[int]struct{}, cfg.Layers())
	}
	for l, e := range cfg.ExpertsPerLayer {
		s.Counts[l] = make([]float64, e)
		s.AttnSum[l] = make([]float64, e)
		if trackSamples {
			s.Samples[l] = make(map[int]map[int]struct{}, e)
		}
	}
	return s
}

func (s *ActivationStats) recordToken(layer int, origIdxs []int, attnRecv float64, sampleID int) {
	for _, o := range origIdxs {
		s.Counts[layer][o]++
		s.AttnSum[layer][o] += attnRecv
		if s.trackSamples && sampleID >= 0 {
			set := s.Samples[layer][o]
			if set == nil {
				set = make(map[int]struct{})
				s.Samples[layer][o] = set
			}
			set[sampleID] = struct{}{}
		}
	}
	if layer == 0 {
		s.Tokens++
	}
}

// Frequency returns the activation frequency of (layer, origExpert):
// routed tokens divided by total tokens seen.
func (s *ActivationStats) Frequency(layer, expert int) float64 {
	if s.Tokens == 0 {
		return 0
	}
	return s.Counts[layer][expert] / s.Tokens
}

// FrequencyMatrix returns per-layer activation frequency vectors.
func (s *ActivationStats) FrequencyMatrix() [][]float64 {
	out := make([][]float64, len(s.Counts))
	for l, row := range s.Counts {
		fr := make([]float64, len(row))
		for e := range row {
			fr[e] = s.Frequency(l, e)
		}
		out[l] = fr
	}
	return out
}

// LayerVariance returns the variance of activation frequencies within layer l
// — the v_l of Eq. (1).
func (s *ActivationStats) LayerVariance(l int) float64 {
	fr := make([]float64, len(s.Counts[l]))
	for e := range fr {
		fr[e] = s.Frequency(l, e)
	}
	return tensor.Variance(fr)
}

// AvgAttention returns the mean attention-received score of tokens routed to
// (layer, expert), or 0 if the expert saw no tokens.
func (s *ActivationStats) AvgAttention(layer, expert int) float64 {
	c := s.Counts[layer][expert]
	if c == 0 {
		return 0
	}
	return s.AttnSum[layer][expert] / c
}

// SampleSet returns the sorted sample ids whose tokens reached (layer,
// expert). Empty unless the stats were created with sample tracking.
func (s *ActivationStats) SampleSet(layer, expert int) []int {
	if !s.trackSamples || s.Samples[layer] == nil {
		return nil
	}
	set := s.Samples[layer][expert]
	ids := make([]int, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// EstimationError returns the mean absolute relative error between the
// activation frequencies measured by s and by reference, averaged over all
// experts with nonzero reference frequency. This is the metric of Figure 5.
func (s *ActivationStats) EstimationError(reference *ActivationStats) float64 {
	var sum float64
	var n int
	for l := range s.Counts {
		for e := range s.Counts[l] {
			ref := reference.Frequency(l, e)
			if ref == 0 {
				continue
			}
			est := s.Frequency(l, e)
			d := est - ref
			if d < 0 {
				d = -d
			}
			sum += d / ref
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Grads accumulates gradients across a batch: per-expert parameter gradients
// plus optional embedding/head gradients (used only during pre-training), and
// the per-expert token-gradient magnitudes feeding Flux's utility metric.
// Only experts the backward pass trains are filled: a frozen expert's entry
// in Experts stays nil and its token-gradient counters stay zero.
type Grads struct {
	Experts [][]*ExpertGrad // [layer][expertIdx], allocated on a trainable expert's first routed token
	Embed   *tensor.Matrix
	Head    *tensor.Matrix

	// TokenGradNorm[l][e] accumulates Σ‖dy_token‖ over tokens routed to the
	// trainable expert at position e in layer l; TokenGradCount counts those
	// tokens.
	TokenGradNorm  [][]float64
	TokenGradCount [][]float64
}

// NewGrads allocates a gradient accumulator shaped like m. Expert buffers
// are lazy; embedding/head buffers are allocated only if trainEmbed.
func NewGrads(m *Model, trainEmbed bool) *Grads {
	g := &Grads{
		Experts:        make([][]*ExpertGrad, len(m.Layers)),
		TokenGradNorm:  make([][]float64, len(m.Layers)),
		TokenGradCount: make([][]float64, len(m.Layers)),
	}
	for l, layer := range m.Layers {
		g.Experts[l] = make([]*ExpertGrad, len(layer.Experts))
		g.TokenGradNorm[l] = make([]float64, len(layer.Experts))
		g.TokenGradCount[l] = make([]float64, len(layer.Experts))
	}
	if trainEmbed {
		g.Embed = tensor.NewMatrix(m.Embed.Rows, m.Embed.Cols)
		g.Head = tensor.NewMatrix(m.Head.Rows, m.Head.Cols)
	}
	return g
}

func (g *Grads) expertGrad(layer, idx int, e *Expert) *ExpertGrad {
	if g.Experts[layer][idx] == nil {
		//fluxvet:allow hotalloc lazy one-time init: each touched expert allocates its grad buffer on first use, then the nil check short-circuits for the rest of the run
		g.Experts[layer][idx] = NewExpertGrad(e)
	}
	return g.Experts[layer][idx]
}

func (g *Grads) recordTokenGrad(layer, idx int, dy []float64) {
	g.TokenGradNorm[layer][idx] += tensor.Norm2(dy)
	g.TokenGradCount[layer][idx]++
}

// AvgTokenGradNorm returns the average per-token gradient magnitude for the
// expert at (layer, idx) — the √-mean term inside Eq. (3).
func (g *Grads) AvgTokenGradNorm(layer, idx int) float64 {
	c := g.TokenGradCount[layer][idx]
	if c == 0 {
		return 0
	}
	return g.TokenGradNorm[layer][idx] / c
}

// Reset returns a zeroed expert-gradient accumulator shaped like m, reusing
// g's buffers when the expert layout matches and allocating fresh ones
// otherwise. A nil receiver is allowed and behaves like NewGrads(m, false);
// accumulators carrying embedding/head buffers are never reused (those exist
// only during pre-training). Worker scratches use it so full-model methods
// stop re-allocating gradient storage every round.
func (g *Grads) Reset(m *Model) *Grads {
	if g == nil || g.Embed != nil || len(g.Experts) != len(m.Layers) {
		return NewGrads(m, false)
	}
	for l, layer := range m.Layers {
		if len(g.Experts[l]) != len(layer.Experts) {
			return NewGrads(m, false)
		}
		for e, eg := range g.Experts[l] {
			if eg == nil {
				continue
			}
			ex := layer.Experts[e]
			if eg.W1.Rows != ex.W1.Rows || eg.W1.Cols != ex.W1.Cols ||
				eg.W2.Rows != ex.W2.Rows || eg.W2.Cols != ex.W2.Cols {
				return NewGrads(m, false)
			}
		}
	}
	g.Zero()
	return g
}

// Zero clears all accumulated gradients.
func (g *Grads) Zero() {
	for l := range g.Experts {
		for _, eg := range g.Experts[l] {
			if eg != nil {
				eg.Zero()
			}
		}
		for e := range g.TokenGradNorm[l] {
			g.TokenGradNorm[l][e] = 0
			g.TokenGradCount[l][e] = 0
		}
	}
	if g.Embed != nil {
		g.Embed.Zero()
		g.Head.Zero()
	}
}
