// Package assign implements Flux's dynamic expert role assignment (§6):
// the gradient-and-data-driven expert utility of Eq. (3), the
// per-participant budgeted selection of Eq. (4), the exploration–
// exploitation split of Algorithm 1 with a dynamic ε schedule, and the
// forward-only (SPSA-style) gradient estimation used to refresh utilities
// of exploration experts without backpropagation.
package assign

import (
	"math"
	"sort"

	"repro/internal/moe"
	"repro/internal/tensor"
)

// Key identifies an expert by layer and original index.
type Key struct {
	Layer, Expert int
}

// UtilityTable stores one participant's utility estimates, u_i^e of Eq. (3).
type UtilityTable struct {
	U map[Key]float64
}

// NewUtilityTable seeds utilities from activation frequencies, the paper's
// round-0 initialization (u = Norm(a)).
func NewUtilityTable(stats *moe.ActivationStats) *UtilityTable {
	t := &UtilityTable{U: make(map[Key]float64)}
	if stats == nil {
		return t
	}
	var total float64
	for l := range stats.Counts {
		for e := range stats.Counts[l] {
			total += stats.Frequency(l, e)
		}
	}
	if total == 0 {
		total = 1
	}
	for l := range stats.Counts {
		for e := range stats.Counts[l] {
			t.U[Key{l, e}] = stats.Frequency(l, e) / total
		}
	}
	return t
}

// Utility computes Eq. (3): u = |D_e| · sqrt( (1/|D_e|) Σ‖∇g_k‖ ), where
// sampleCount is |D_e| (tokens or samples routed to the expert) and
// avgGradNorm is the mean per-token gradient magnitude.
func Utility(sampleCount float64, avgGradNorm float64) float64 {
	if sampleCount <= 0 || avgGradNorm < 0 {
		return 0
	}
	return sampleCount * math.Sqrt(avgGradNorm)
}

// Set overwrites the utility of key.
func (t *UtilityTable) Set(key Key, u float64) { t.U[key] = u }

// Get returns the utility of key (0 when never estimated).
func (t *UtilityTable) Get(key Key) float64 { return t.U[key] }

// Assignment is the server's decision for one participant in one round.
type Assignment struct {
	// Exploit experts are fine-tuned with real backpropagation.
	Exploit []Key
	// Explore experts receive forward-only gradient probes to refresh
	// their utility estimates; they are NOT fine-tuned this round.
	Explore []Key
}

// Tuning converts the exploit set into the per-layer id lists the merging
// module and Customize expect.
func (a Assignment) Tuning(layers int) [][]int {
	out := make([][]int, layers)
	for _, k := range a.Exploit {
		out[k.Layer] = append(out[k.Layer], k.Expert)
	}
	for l := range out {
		sort.Ints(out[l])
	}
	return out
}

// EpsilonSchedule yields the exploitation fraction ε for a round.
type EpsilonSchedule interface {
	Epsilon(round int) float64
	Name() string
}

// FixedEpsilon always returns the same ε.
type FixedEpsilon float64

// Epsilon implements EpsilonSchedule.
func (f FixedEpsilon) Epsilon(int) float64 { return float64(f) }

// Name implements EpsilonSchedule.
func (f FixedEpsilon) Name() string { return "fixed" }

// DynamicEpsilon ramps ε linearly from Start to End over Rounds rounds —
// §6.2's schedule: explore early while utility estimates are unreliable,
// exploit late.
type DynamicEpsilon struct {
	Start, End float64
	Rounds     int
}

// Epsilon implements EpsilonSchedule.
func (d DynamicEpsilon) Epsilon(round int) float64 {
	if d.Rounds <= 1 {
		return d.End
	}
	f := float64(round) / float64(d.Rounds-1)
	if f > 1 {
		f = 1
	}
	return d.Start + (d.End-d.Start)*f
}

// Name implements EpsilonSchedule.
func (d DynamicEpsilon) Name() string { return "dynamic" }

// DefaultDynamicEpsilon returns the schedule used by Flux in experiments.
func DefaultDynamicEpsilon(rounds int) DynamicEpsilon {
	return DynamicEpsilon{Start: 0.3, End: 0.9, Rounds: rounds}
}

// Assign solves Eq. (4) for one participant and applies Algorithm 1's
// ε-split. The per-participant constraint makes the LP separable: the
// optimum is simply the budget-many highest-utility experts. Of those
// candidates, the top ε·B keep their slot for exploitation; the remaining
// (1-ε)·B slots are filled by experts sampled uniformly from outside the
// exploit set, refreshing stale utilities.
func Assign(t *UtilityTable, layers []int, budget int, eps float64, g *tensor.RNG) Assignment {
	// Enumerate all experts.
	var all []Key
	for l, n := range layers {
		for e := 0; e < n; e++ {
			all = append(all, Key{l, e})
		}
	}
	if budget > len(all) {
		budget = len(all)
	}
	// Candidates: top-budget by utility (deterministic tie-break by key).
	sorted := append([]Key(nil), all...)
	sort.Slice(sorted, func(i, j int) bool {
		ui, uj := t.Get(sorted[i]), t.Get(sorted[j])
		if ui != uj {
			return ui > uj
		}
		if sorted[i].Layer != sorted[j].Layer {
			return sorted[i].Layer < sorted[j].Layer
		}
		return sorted[i].Expert < sorted[j].Expert
	})
	candidates := sorted[:budget]

	nExploit := int(math.Round(eps * float64(budget)))
	if nExploit < 1 {
		nExploit = 1
	}
	if nExploit > budget {
		nExploit = budget
	}
	a := Assignment{Exploit: append([]Key(nil), candidates[:nExploit]...)}

	// Exploration pool: everything not exploited.
	inExploit := make(map[Key]bool, nExploit)
	for _, k := range a.Exploit {
		inExploit[k] = true
	}
	var pool []Key
	for _, k := range all {
		if !inExploit[k] {
			pool = append(pool, k)
		}
	}
	nExplore := budget - nExploit
	if nExplore > len(pool) {
		nExplore = len(pool)
	}
	perm := g.Perm(len(pool))
	for i := 0; i < nExplore; i++ {
		a.Explore = append(a.Explore, pool[perm[i]])
	}
	return a
}

// SPSAResult is a forward-only gradient estimate for one expert.
type SPSAResult struct {
	Norm      float64   // estimated gradient magnitude
	Direction []float64 // estimated gradient direction (flattened params)
	Probes    int
}

// EstimateGradientSPSA estimates the gradient of the loss with respect to
// one expert's parameters using only forward passes (§6.2, following
// forward-gradient methods [1,17]): for each probe a random unit direction
// u is applied as a σ-scaled perturbation, and the directional derivative
// is approximated by the loss difference. E[(∇·u)u]·dim recovers ∇.
//
// seqs/masks are the token sequences to measure loss on. The model is
// restored exactly afterwards. ws provides forward-pass buffers (nil
// allocates a private one).
//
// Since the perturbation touches only one expert in key.Layer, layers below
// it produce bit-identical activations in every evaluation; each sequence's
// forward prefix is therefore computed once and only the suffix from
// key.Layer is re-run per probe. Results are bit-identical to perturbed full
// forward passes.
func EstimateGradientSPSA(m *moe.Model, ws *moe.Workspace, key Key, seqs [][]int, masks [][]bool, probes int, sigma float64, g *tensor.RNG) SPSAResult {
	if ws == nil {
		ws = moe.NewWorkspace()
	}
	ex := m.ExpertAt(key.Layer, key.Expert)
	flat := ex.FlattenTo(nil)
	dim := len(flat)

	// Draw every probe direction up front. The RNG stream is unchanged from
	// drawing them between evaluations (loss passes consume no randomness),
	// and it lets one forward prefix per sequence serve the baseline and all
	// probes. Zero-norm draws stay in the stream but are skipped, exactly as
	// before.
	us := make([]float64, probes*dim)
	live := make([]bool, probes)
	for p := 0; p < probes; p++ {
		u := us[p*dim : (p+1)*dim]
		for i := range u {
			u[i] = g.Norm()
		}
		n := tensor.Norm2(u)
		if n == 0 {
			continue
		}
		live[p] = true
		for i := range u {
			u[i] /= n
		}
	}

	pert := make([]float64, dim)
	lossSum := make([]float64, probes)
	var baseSum float64
	for si, seq := range seqs {
		var mask []bool
		if masks != nil {
			mask = masks[si]
		}
		x := m.ForwardPrefixWS(ws, seq, key.Layer)
		baseSum += m.LossSuffixWS(ws, x, key.Layer, seq, mask)
		for p := 0; p < probes; p++ {
			if !live[p] {
				continue
			}
			u := us[p*dim : (p+1)*dim]
			for i := range pert {
				pert[i] = flat[i] + sigma*u[i]
			}
			ex.LoadFlat(pert)
			lossSum[p] += m.LossSuffixWS(ws, x, key.Layer, seq, mask)
			ex.LoadFlat(flat)
		}
	}
	base := baseSum / float64(len(seqs))

	dir := make([]float64, dim)
	var sqSum float64
	for p := 0; p < probes; p++ {
		if !live[p] {
			continue
		}
		u := us[p*dim : (p+1)*dim]
		delta := (lossSum[p]/float64(len(seqs)) - base) / sigma // ≈ ∇·u
		sqSum += delta * delta
		for i := range dir {
			dir[i] += delta * u[i]
		}
	}
	res := SPSAResult{Probes: probes, Direction: dir}
	if probes > 0 {
		// For random unit u in R^dim, E[(∇·u)²] = ‖∇‖²/dim.
		res.Norm = math.Sqrt(sqSum / float64(probes) * float64(dim))
		scale := float64(dim) / float64(probes)
		for i := range dir {
			dir[i] *= scale
		}
	}
	return res
}

// ProbeExploreSPSA runs EstimateGradientSPSA for several experts of one
// model over one probe batch, sharing forward state across them: a single
// full pass per sequence (which doubles as the baseline) populates the
// workspace layer caches, and experts are then probed in descending layer
// order, so each perturbed suffix re-run clobbers only activations at or
// above its own layer and every remaining expert's prefix stays cached.
// Results are bit-identical to independent per-expert calls and are returned
// aligned with keys; split supplies each expert's RNG (per-key streams are
// independent, so probe order does not affect the draws).
func ProbeExploreSPSA(m *moe.Model, ws *moe.Workspace, keys []Key, seqs [][]int, masks [][]bool, probes int, sigma float64, split func(Key) *tensor.RNG) []SPSAResult {
	if ws == nil {
		ws = moe.NewWorkspace()
	}
	n := len(keys)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return keys[order[a]].Layer > keys[order[b]].Layer })

	experts := make([]*moe.Expert, n)
	flats := make([][]float64, n)
	us := make([][]float64, n)   // per key: probes×dim unit directions
	live := make([][]bool, n)    // per key: which probes drew a usable direction
	sums := make([][]float64, n) // per key: per-probe loss sums over seqs
	var dimMax int
	for i, key := range keys {
		experts[i] = m.ExpertAt(key.Layer, key.Expert)
		flats[i] = experts[i].FlattenTo(nil)
		dim := len(flats[i])
		if dim > dimMax {
			dimMax = dim
		}
		g := split(key)
		us[i] = make([]float64, probes*dim)
		live[i] = make([]bool, probes)
		sums[i] = make([]float64, probes)
		for p := 0; p < probes; p++ {
			u := us[i][p*dim : (p+1)*dim]
			for j := range u {
				u[j] = g.Norm()
			}
			nu := tensor.Norm2(u)
			if nu == 0 {
				continue
			}
			live[i][p] = true
			for j := range u {
				u[j] /= nu
			}
		}
	}

	pert := make([]float64, dimMax)
	var baseSum float64
	for si, seq := range seqs {
		var mask []bool
		if masks != nil {
			mask = masks[si]
		}
		baseSum += m.LossWS(ws, seq, mask) // populates every layer cache
		for _, i := range order {
			key := keys[i]
			x := m.LayerInputWS(ws, key.Layer)
			ex, flat := experts[i], flats[i]
			dim := len(flat)
			for p := 0; p < probes; p++ {
				if !live[i][p] {
					continue
				}
				u := us[i][p*dim : (p+1)*dim]
				for j := range flat {
					pert[j] = flat[j] + sigma*u[j]
				}
				ex.LoadFlat(pert[:dim])
				sums[i][p] += m.LossSuffixWS(ws, x, key.Layer, seq, mask)
				ex.LoadFlat(flat)
			}
		}
	}
	base := baseSum / float64(len(seqs))

	results := make([]SPSAResult, n)
	for i := range keys {
		dim := len(flats[i])
		dir := make([]float64, dim)
		var sqSum float64
		for p := 0; p < probes; p++ {
			if !live[i][p] {
				continue
			}
			u := us[i][p*dim : (p+1)*dim]
			delta := (sums[i][p]/float64(len(seqs)) - base) / sigma
			sqSum += delta * delta
			for j := range dir {
				dir[j] += delta * u[j]
			}
		}
		results[i] = SPSAResult{Probes: probes, Direction: dir}
		if probes > 0 {
			results[i].Norm = math.Sqrt(sqSum / float64(probes) * float64(dim))
			scale := float64(dim) / float64(probes)
			for j := range dir {
				dir[j] *= scale
			}
		}
	}
	return results
}

// TrueExpertGradient computes the reference backpropagation gradient of one
// expert over the given sequences, flattened in FlattenTo order. Used as
// ground truth by Figure 18.
func TrueExpertGradient(m *moe.Model, key Key, seqs [][]int, masks [][]bool) []float64 {
	grads := moe.NewGrads(m, false)
	ws := moe.NewWorkspace()
	for i, seq := range seqs {
		var mask []bool
		if masks != nil {
			mask = masks[i]
		}
		m.ForwardBackwardWS(ws, seq, mask, grads, nil, -1)
	}
	layer := m.Layers[key.Layer]
	pos := layer.Routing[key.Expert]
	eg := grads.Experts[key.Layer][pos]
	if eg == nil {
		return make([]float64, len(m.ExpertAt(key.Layer, key.Expert).FlattenTo(nil)))
	}
	out := append([]float64(nil), eg.W1.Data...)
	out = append(out, eg.B1...)
	out = append(out, eg.W2.Data...)
	out = append(out, eg.B2...)
	return out
}
