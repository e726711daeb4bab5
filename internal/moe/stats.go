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

// Reset returns empty stats for cfg, reusing s's storage: the count and
// attention rows are cleared in place, and with sample tracking each
// per-expert sample set is emptied but kept, so a profile rebuilt every round
// stops allocating once every expert has seen a sample. A nil receiver is
// allowed and behaves like NewActivationStats.
func (s *ActivationStats) Reset(cfg Config, trackSamples bool) *ActivationStats {
	if s == nil {
		return NewActivationStats(cfg, trackSamples)
	}
	L := cfg.Layers()
	s.Counts = resize(s.Counts, L)
	s.AttnSum = resize(s.AttnSum, L)
	for l, e := range cfg.ExpertsPerLayer {
		s.Counts[l] = growFloats(s.Counts[l], e)
		s.AttnSum[l] = growFloats(s.AttnSum[l], e)
		clear(s.Counts[l])
		clear(s.AttnSum[l])
	}
	s.Tokens = 0
	s.trackSamples = trackSamples
	if !trackSamples {
		return s
	}
	s.Samples = resize(s.Samples, L)
	for l, e := range cfg.ExpertsPerLayer {
		if s.Samples[l] == nil {
			s.Samples[l] = make(map[int]map[int]struct{}, e)
		}
		//fluxvet:unordered clearing every set is order-free
		for _, set := range s.Samples[l] {
			clear(set)
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

	spare []*ExpertGrad // buffers Reset took back, handed out again by expertGrad
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

// expertGrad returns the gradient buffer of the expert e at (layer, idx),
// taking a zeroed one — a spare when one fits e — on its first use.
func (g *Grads) expertGrad(layer, idx int, e *Expert) *ExpertGrad {
	eg := g.Experts[layer][idx]
	if eg != nil {
		return eg
	}
	for eg == nil && len(g.spare) > 0 {
		eg = g.spare[len(g.spare)-1]
		g.spare = g.spare[:len(g.spare)-1]
		if eg.W1.Rows != e.W1.Rows || eg.W1.Cols != e.W1.Cols || len(eg.B1) != len(e.B1) ||
			eg.W2.Rows != e.W2.Rows || eg.W2.Cols != e.W2.Cols || len(eg.B2) != len(e.B2) {
			eg = nil
		}
	}
	if eg == nil {
		eg = NewExpertGrad(e)
	} else {
		eg.Zero()
	}
	g.Experts[layer][idx] = eg
	return eg
}

func (g *Grads) recordTokenGrad(layer, idx int, dy []float64) {
	g.TokenGradNorm[layer][idx] += tensor.Norm2(dy)
	g.TokenGradCount[layer][idx]++
}

// countToken is recordTokenGrad for a token whose gradient is +0: its norm
// would add +0, which leaves TokenGradNorm unchanged. The expert's gradient
// buffer is still taken, as the ±0 accumulation of the full pass takes it.
func (g *Grads) countToken(layer, idx int, e *Expert) {
	g.TokenGradCount[layer][idx]++
	g.expertGrad(layer, idx, e)
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

// Reset returns an empty expert-gradient accumulator shaped like m,
// equivalent to NewGrads(m, false) but reusing g's storage whatever m's
// expert layout: every expert buffer g holds becomes a spare that the next
// backward pass hands out, zeroed, to the first trainable expert it reaches,
// so a worker whose local layout changes every round (Flux's customized
// models) stops allocating gradient storage. A nil receiver is allowed and
// behaves like NewGrads(m, false); accumulators carrying embedding/head
// buffers are never reused (those exist only during pre-training).
func (g *Grads) Reset(m *Model) *Grads {
	if g == nil || g.Embed != nil {
		return NewGrads(m, false)
	}
	L := len(m.Layers)
	g.Experts = resize(g.Experts, L)
	g.TokenGradNorm = resize(g.TokenGradNorm, L)
	g.TokenGradCount = resize(g.TokenGradCount, L)
	for l, layer := range m.Layers {
		n := len(layer.Experts)
		for e, eg := range g.Experts[l] {
			if eg != nil {
				g.spare = append(g.spare, eg)
				g.Experts[l][e] = nil
			}
		}
		g.Experts[l] = resize(g.Experts[l], n)
		g.TokenGradNorm[l] = growFloats(g.TokenGradNorm[l], n)
		g.TokenGradCount[l] = growFloats(g.TokenGradCount[l], n)
		clear(g.TokenGradNorm[l])
		clear(g.TokenGradCount[l])
	}
	return g
}
