// Package merge implements Flux's adaptive merging of non-tuning experts
// (§5): per-layer merging budgets from activation variance and depth
// (Eq. 1), similarity-based fused expert clustering (§5.2), and
// importance-weighted parameter averaging using activation frequency ×
// attention (Eq. 2). The ablation baselines of Figures 15 and 17 (single
// expert, uniform budgets, plain/frequency-only averaging) live here too.
package merge

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/moe"
	"repro/internal/tensor"
)

// BudgetPolicy selects how the total non-tuning budget is split over layers.
type BudgetPolicy int

// Budget policies (Figure 15's three arms).
const (
	// BudgetSingle merges all non-tuning experts of a layer into one.
	BudgetSingle BudgetPolicy = iota
	// BudgetUniform spreads the budget evenly across layers.
	BudgetUniform
	// BudgetAdaptive applies Eq. (1): earlier layers and layers with
	// balanced activation get more merged experts.
	BudgetAdaptive
)

func (p BudgetPolicy) String() string {
	switch p {
	case BudgetSingle:
		return "single"
	case BudgetUniform:
		return "uniform"
	default:
		return "adaptive"
	}
}

// Strategy selects the weighting inside each merge group.
type Strategy int

// Merge strategies (Figure 17's three arms).
const (
	// StrategyAvg is plain parameter averaging.
	StrategyAvg Strategy = iota
	// StrategyFreq weights experts by activation frequency [40].
	StrategyFreq
	// StrategyAttnFreq weights by frequency × mean attention (Eq. 2).
	StrategyAttnFreq
)

func (s Strategy) String() string {
	switch s {
	case StrategyAvg:
		return "avg"
	case StrategyFreq:
		return "freq"
	default:
		return "attn+freq"
	}
}

// Options configures the merging module. Clustering is always §5.2's fused
// cross-layer K-Means; Figure 16 times the per-layer alternative by calling
// cluster.PerLayerKMeans itself.
type Options struct {
	Policy      BudgetPolicy
	Strategy    Strategy
	SketchDims  int // parameter-sketch length fed to PCA
	PCADims     int // feature dimensionality after PCA
	KMeansIters int
}

// DefaultOptions returns Flux's configuration.
func DefaultOptions() Options {
	return Options{
		Policy:      BudgetAdaptive,
		Strategy:    StrategyAttnFreq,
		SketchDims:  48,
		PCADims:     6,
		KMeansIters: 25,
	}
}

// LayerBudgets computes per-layer merged-expert budgets for a total budget
// of totalBudget merged experts, given the non-tuning expert count and
// activation variance of each layer.
//
// Under BudgetAdaptive this is Eq. (1): b_l = (L-l+1)/v_l, budget_l ∝ b_l.
// Every layer with at least one non-tuning expert receives at least one
// merged expert (you cannot drop a layer), and no layer receives more than
// it has non-tuning experts.
func LayerBudgets(policy BudgetPolicy, nonTuning []int, variance []float64, totalBudget int) []int {
	L := len(nonTuning)
	out := make([]int, L)
	active := 0
	for l, n := range nonTuning {
		if n > 0 {
			active++
			out[l] = 1 // floor: one merged expert per populated layer
		}
	}
	if active == 0 {
		return out
	}
	if totalBudget < active {
		totalBudget = active
	}
	remaining := totalBudget - active

	switch policy {
	case BudgetSingle:
		return out
	case BudgetUniform:
		for remaining > 0 {
			progress := false
			for l := 0; l < L && remaining > 0; l++ {
				if nonTuning[l] > out[l] {
					out[l]++
					remaining--
					progress = true
				}
			}
			if !progress {
				break
			}
		}
		return out
	}

	// Adaptive: scores b_l = (L-l+1)/v_l.
	scores := make([]float64, L)
	var sum float64
	for l := 0; l < L; l++ {
		if nonTuning[l] == 0 {
			continue
		}
		v := 0.0
		if l < len(variance) {
			v = variance[l]
		}
		const vFloor = 1e-6 // balanced layers have tiny variance; cap the boost
		if v < vFloor {
			v = vFloor
		}
		scores[l] = float64(L-l) / v // L-l+1 with 0-based l
		sum += scores[l]
	}
	if sum == 0 {
		return out
	}
	// Largest-remainder allocation of the extra budget.
	type frac struct {
		l    int
		frac float64
	}
	extras := make([]frac, 0, L)
	used := 0
	for l := 0; l < L; l++ {
		if nonTuning[l] == 0 {
			continue
		}
		exact := float64(scores[l] / sum * float64(remaining))
		take := int(exact)
		if out[l]+take > nonTuning[l] {
			take = nonTuning[l] - out[l]
		}
		out[l] += take
		used += take
		extras = append(extras, frac{l: l, frac: exact - float64(int(exact))})
	}
	left := remaining - used
	for left > 0 {
		best := -1
		for i := range extras {
			l := extras[i].l
			if out[l] >= nonTuning[l] {
				continue
			}
			if best < 0 || extras[i].frac > extras[best].frac {
				best = i
			}
		}
		if best < 0 {
			break
		}
		out[extras[best].l]++
		extras[best].frac = -1
		left--
	}
	return out
}

// Plan is a complete merging decision for one participant.
type Plan struct {
	Specs   []moe.LayerSpec
	Budgets []int
}

// BuildPlan produces the layer specs that turn the global model into a
// participant-local compact model: tuning[l] experts stay full-size, and the
// remaining experts of each layer are clustered into the layer's budget of
// merged experts with weights chosen by the strategy.
//
// stats supplies activation frequencies, attention scores, and per-layer
// variances; it may come from a stale quantized profile. It is Planner.Build
// on a fresh planner.
func BuildPlan(global *moe.Model, stats *moe.ActivationStats, tuning [][]int, totalBudget int, opt Options, g *tensor.RNG) (*Plan, error) {
	return new(Planner).Build(global, stats, tuning, totalBudget, opt, g)
}

// Planner builds merge plans, keeping its buffers — the expert sketches, the
// PCA scratch, the per-layer lists and the plan itself — from one Build to
// the next, so a worker planning every round stops allocating them. The
// zero value is ready to use. The plan a Build returns is valid until the
// next Build; a Planner belongs to one goroutine at a time.
type Planner struct {
	plan      Plan
	weights   []map[int]float64 // [layer] the plan's MergeWeights storage
	nonTuning [][]int
	counts    []int
	variance  []float64
	isTuning  []bool
	covered   []bool
	feats     *tensor.Matrix
	points    []cluster.LayerPoint
	pca       tensor.PCAScratch
}

// Build is BuildPlan with p's buffers.
func (p *Planner) Build(global *moe.Model, stats *moe.ActivationStats, tuning [][]int, totalBudget int, opt Options, g *tensor.RNG) (*Plan, error) {
	L := len(global.Layers)
	if len(tuning) != L {
		return nil, fmt.Errorf("merge: tuning has %d layers, model has %d", len(tuning), L)
	}

	// Non-tuning expert lists per layer.
	p.nonTuning = resize(p.nonTuning, L)
	p.counts = resize(p.counts, L)
	p.variance = resize(p.variance, L)
	nonTuning := p.nonTuning
	for l, layer := range global.Layers {
		p.isTuning = resize(p.isTuning, layer.OrigExperts)
		clear(p.isTuning)
		for _, id := range tuning[l] {
			if id < 0 || id >= layer.OrigExperts {
				return nil, fmt.Errorf("merge: tuning id %d out of range in layer %d", id, l)
			}
			p.isTuning[id] = true
		}
		nonTuning[l] = nonTuning[l][:0]
		for e := 0; e < layer.OrigExperts; e++ {
			if !p.isTuning[e] {
				nonTuning[l] = append(nonTuning[l], e)
			}
		}
		p.counts[l] = len(nonTuning[l])
		p.variance[l] = stats.LayerVariance(l)
	}
	budgets := LayerBudgets(opt.Policy, p.counts, p.variance, totalBudget)

	groups, err := p.clusterExperts(global, budgets, opt, g)
	if err != nil {
		return nil, err
	}

	p.plan.Specs = resize(p.plan.Specs, L)
	p.plan.Budgets = budgets
	for len(p.weights) < L {
		p.weights = append(p.weights, make(map[int]float64))
	}
	for l := 0; l < L; l++ {
		spec := &p.plan.Specs[l]
		spec.Tuning = append(spec.Tuning[:0], tuning[l]...)
		spec.MergeGroups = spec.MergeGroups[:0]
		spec.MergeWeights = nil
		if len(nonTuning[l]) > 0 {
			spec.MergeWeights = p.weights[l]
			clear(spec.MergeWeights)
			for _, grp := range groups[l] {
				if len(grp) == 0 {
					continue
				}
				spec.MergeGroups = append(spec.MergeGroups, grp)
				for _, e := range grp {
					spec.MergeWeights[e] = mergeWeight(opt.Strategy, stats, l, e)
				}
			}
		}
	}
	return &p.plan, nil
}

// resize returns s with length n: its first n elements, then zero values
// where s had fewer.
func resize[T any](s []T, n int) []T {
	if n <= len(s) {
		return s[:n]
	}
	return append(s, make([]T, n-len(s))...)
}

// mergeWeight computes α_e for Eq. (2) under the chosen strategy.
func mergeWeight(s Strategy, stats *moe.ActivationStats, layer, expert int) float64 {
	switch s {
	case StrategyAvg:
		return 1
	case StrategyFreq:
		return stats.Frequency(layer, expert) + 1e-9
	default:
		f := stats.Frequency(layer, expert)
		a := stats.AvgAttention(layer, expert)
		return float64(f*a) + 1e-9
	}
}

// clusterExperts groups each layer's non-tuning experts (p.nonTuning) into
// its budget of clusters using PCA sketches of expert parameters and fused
// K-Means.
func (p *Planner) clusterExperts(global *moe.Model, budgets []int, opt Options, g *tensor.RNG) ([][][]int, error) {
	nonTuning := p.nonTuning
	p.points = p.points[:0]
	for l, ids := range nonTuning {
		for _, e := range ids {
			p.points = append(p.points, cluster.LayerPoint{Layer: l, Expert: e})
		}
	}
	if len(p.points) == 0 {
		return make([][][]int, len(nonTuning)), nil
	}
	p.feats = tensor.Grow(p.feats, len(p.points), opt.SketchDims)
	feats := p.feats
	for i, pt := range p.points {
		sketchInto(feats.Row(i), global.ExpertAt(pt.Layer, pt.Expert))
	}
	// Dimensionality reduction (§5.2 step 1).
	if opt.PCADims > 0 && opt.PCADims < opt.SketchDims {
		feats = tensor.PCA(feats, opt.PCADims, g.Split("pca"), &p.pca)
	}
	res, err := cluster.FusedKMeans(feats, p.points, append([]int(nil), budgets...), opt.KMeansIters, g.Split("kmeans"))
	if err != nil {
		return nil, err
	}
	// Drop empty groups; guarantee every non-tuning expert is covered.
	out := make([][][]int, len(nonTuning))
	for l := range res.GroupsByLayer {
		covered := resize(p.covered, global.Layers[l].OrigExperts)
		clear(covered)
		for _, grp := range res.GroupsByLayer[l] {
			if len(grp) == 0 {
				continue
			}
			out[l] = append(out[l], grp)
			for _, e := range grp {
				covered[e] = true
			}
		}
		for _, e := range nonTuning[l] {
			if !covered[e] {
				out[l] = append(out[l], []int{e})
			}
		}
		p.covered = covered
	}
	return out, nil
}

// Sketch produces a fixed-length deterministic sample of an expert's
// parameters, the feature vector fed to PCA. Sampling with a fixed stride
// keeps clustering cost independent of expert size while remaining
// comparable across experts (same positions sampled everywhere).
func Sketch(e *moe.Expert, dims int) []float64 {
	out := make([]float64, dims)
	sketchInto(out, e)
	return out
}

// sketchInto writes e's len(out)-long Sketch into out.
func sketchInto(out []float64, e *moe.Expert) {
	dims := len(out)
	// The sampled positions index the expert's FlattenTo layout, read in
	// place rather than from a flattened copy.
	parts := [...][]float64{e.W1.Data, e.B1, e.W2.Data, e.B2}
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n == 0 {
		clear(out)
		return
	}
	stride := float64(n) / float64(dims)
	if stride < 1 {
		stride = 1
	}
	for i := range out {
		idx := int(float64(i) * stride)
		if idx >= n {
			idx = n - 1
		}
		for _, p := range parts {
			if idx < len(p) {
				out[i] = p[idx]
				break
			}
			idx -= len(p)
		}
	}
}

// OutputError measures the mean cosine distance between final-token
// embeddings of model and reference over the given sequences — the paper's
// merging quality metric (Figures 8, 15, 17).
func OutputError(model, reference *moe.Model, seqs [][]int) float64 {
	if len(seqs) == 0 {
		return 0
	}
	var sum float64
	for _, seq := range seqs {
		a := model.OutputEmbedding(seq)
		b := reference.OutputEmbedding(seq)
		d := tensor.CosineDist(a, b)
		if math.IsNaN(d) {
			d = 1
		}
		sum += d
	}
	return sum / float64(len(seqs))
}
