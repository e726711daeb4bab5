// Package assign implements Flux's dynamic expert role assignment (§6):
// the gradient-and-data-driven expert utility of Eq. (3), the
// per-participant budgeted selection of Eq. (4), the exploration–
// exploitation split of Algorithm 1 with a dynamic ε schedule, and the
// forward-only (SPSA-style) gradient estimation used to refresh utilities
// of exploration experts without backpropagation.
package assign

import (
	"cmp"
	"math"
	"slices"
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
	return d.Start + float64((d.End-d.Start)*f)
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

// ProbeExploreSPSA estimates, for each of several experts of one model, the
// gradient of the loss over one probe batch with respect to that expert's
// parameters using only forward passes (§6.2, following forward-gradient
// methods [1,17]): for each probe a random unit direction u is applied as a
// σ-scaled perturbation, and the directional derivative is approximated by
// the loss difference. E[(∇·u)u]·dim recovers ∇. Results are aligned with
// keys; split supplies each expert's RNG, and every probe direction is drawn
// up front, key by key (per-key streams are independent, so probe order does
// not affect the draws).
//
// seqs/masks are the token sequences to measure loss on; the model is
// restored exactly afterwards. Forward state is shared across the experts: a
// single full pass per sequence (which doubles as the baseline) populates the
// workspace layer caches, and experts are then probed in descending layer
// order, so each perturbed suffix re-run clobbers only activations at or
// above its own layer and every remaining expert's prefix stays cached. An
// expert the baseline routed no row the loss reads to (moe.Model.RoutesToWS)
// is not perturbed: each of its probes adds the sequence's baseline loss,
// which is what its suffix pass returns. The baseline's routing stays valid
// for every key, because a layer's routing reads only its input, which the
// descending order leaves untouched. Results are bit-identical to
// independent per-expert estimates with a full forward pass per loss
// (assign_test.go keeps both as oracles).
//
// The probe directions, a flattened expert, the perturbation, the loss sums
// and each result's Direction live in ws's probe buffer
// (moe.Workspace.ProbeFloats; nil ws allocates a private workspace), so a
// warm worker probes without allocating them: a Direction is valid until the
// next probe on ws.
func ProbeExploreSPSA(m *moe.Model, ws *moe.Workspace, keys []Key, seqs [][]int, masks [][]bool, probes int, sigma float64, split func(Key) *tensor.RNG) []SPSAResult {
	if ws == nil {
		ws = moe.NewWorkspace()
	}
	n := len(keys)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(keys[b].Layer, keys[a].Layer) })

	// Key i's probe p draws its unit direction into the window
	// us[p*total+off[i]:][:dim], and its result's Direction is then written
	// over probe 0's window.
	off := make([]int, n+1)
	var dimMax int
	for i, key := range keys {
		dim := m.ExpertAt(key.Layer, key.Expert).Params()
		off[i+1] = off[i] + dim
		dimMax = max(dimMax, dim)
	}
	total := off[n]
	buf := ws.ProbeFloats(max(probes, 1)*total + 2*dimMax + n*probes)
	us, buf := buf[:max(probes, 1)*total], buf[max(probes, 1)*total:]
	flatBuf, buf := buf[:dimMax:dimMax], buf[dimMax:]
	pert, sums := buf[:dimMax], buf[dimMax:] // sums[i*probes+p]: key i's probe-p loss sum over seqs
	clear(sums)
	live := make([]bool, n*probes) // which probes drew a usable direction
	for i, key := range keys {
		g := split(key)
		for p := 0; p < probes; p++ {
			u := us[p*total+off[i] : p*total+off[i+1]]
			for j := range u {
				u[j] = g.Norm()
			}
			nu := tensor.Norm2(u)
			if nu == 0 {
				continue
			}
			live[i*probes+p] = true
			for j := range u {
				u[j] /= nu
			}
		}
	}

	var baseSum float64
	for si, seq := range seqs {
		var mask []bool
		if masks != nil {
			mask = masks[si]
		}
		seqBase := m.LossWS(ws, seq, mask) // populates every layer cache
		baseSum += seqBase
		for _, i := range order {
			key := keys[i]
			if !m.RoutesToWS(ws, key.Layer, key.Expert, mask) {
				// No row the loss reads reaches the expert, so every probe's
				// suffix pass would return the baseline bit for bit.
				for p := 0; p < probes; p++ {
					if live[i*probes+p] {
						sums[i*probes+p] += seqBase
					}
				}
				continue
			}
			x := m.LayerInputWS(ws, key.Layer)
			// Every probe restores the expert exactly, so its parameters
			// flattened now are the ones it started with.
			ex := m.ExpertAt(key.Layer, key.Expert)
			flat := ex.FlattenTo(flatBuf[:0])
			for p := 0; p < probes; p++ {
				if !live[i*probes+p] {
					continue
				}
				u := us[p*total+off[i] : p*total+off[i+1]]
				for j := range flat {
					pert[j] = flat[j] + float64(sigma*u[j])
				}
				ex.LoadFlat(pert[:len(flat)])
				sums[i*probes+p] += m.LossSuffixWS(ws, x, key.Layer, seq, mask)
				ex.LoadFlat(flat)
			}
		}
	}
	base := baseSum / float64(len(seqs))

	results := make([]SPSAResult, n)
	for i := range keys {
		dim := off[i+1] - off[i]
		var sqSum float64
		for p := 0; p < probes; p++ {
			if live[i*probes+p] {
				delta := (sums[i*probes+p]/float64(len(seqs)) - base) / sigma // ≈ ∇·u
				sqSum += float64(delta * delta)
				sums[i*probes+p] = delta
			}
		}
		// Direction element j is Σ_p δ_p·u_p[j], scaled, and reads no
		// other element, so it can overwrite probe 0's u[j].
		scale := float64(dim) / float64(max(probes, 1))
		dir := us[off[i]:off[i+1]]
		for j := range dir {
			var d float64
			for p := 0; p < probes; p++ {
				if live[i*probes+p] {
					d += float64(sums[i*probes+p] * us[p*total+off[i]+j])
				}
			}
			if probes > 0 {
				d *= scale
			}
			dir[j] = d
		}
		results[i] = SPSAResult{Probes: probes, Direction: dir}
		if probes > 0 {
			// For random unit u in R^dim, E[(∇·u)²] = ‖∇‖²/dim.
			results[i].Norm = math.Sqrt(sqSum / float64(probes) * float64(dim))
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
