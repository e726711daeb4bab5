package assign

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/moe"
	"repro/internal/tensor"
)

func fixture(t *testing.T) (*moe.Model, [][]int, [][]bool) {
	t.Helper()
	cfg := moe.Uniform("assign-test", 64, 10, 16, 3, 4, 2, 64)
	m := moe.MustNew(cfg, tensor.Named("assign-test"))
	ds := data.Generate(data.GSM8K(), 64, 6, tensor.NewRNG(1))
	var seqs [][]int
	var masks [][]bool
	for _, s := range ds.Samples {
		seq, mask := s.FullSequence()
		seqs = append(seqs, seq)
		masks = append(masks, mask)
	}
	return m, seqs, masks
}

func TestUtilityFormula(t *testing.T) {
	// u = |D| · sqrt(avg grad norm)
	if u := Utility(4, 0.25); math.Abs(u-2) > 1e-12 {
		t.Fatalf("utility = %v want 2", u)
	}
	if Utility(0, 1) != 0 || Utility(5, -1) != 0 {
		t.Fatal("degenerate utilities should be 0")
	}
}

func TestNewUtilityTableFromStats(t *testing.T) {
	m, seqs, _ := fixture(t)
	stats := moe.NewActivationStats(m.Cfg, false)
	for _, seq := range seqs {
		m.ForwardWS(nil, seq, stats, -1)
	}
	tb := NewUtilityTable(stats)
	var sum float64
	//fluxvet:unordered sum is compared against 1 with 1e-9 tolerance; order noise is far below it
	for _, u := range tb.U {
		if u < 0 {
			t.Fatal("negative utility")
		}
		sum += u
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("initial utilities should be normalized, sum=%v", sum)
	}
	if empty := NewUtilityTable(nil); len(empty.U) != 0 {
		t.Fatal("nil stats should give empty table")
	}
}

func TestAssignRespectsBudget(t *testing.T) {
	m, _, _ := fixture(t)
	tb := &UtilityTable{U: map[Key]float64{}}
	g := tensor.NewRNG(2)
	for _, eps := range []float64{0.3, 0.7, 1.0} {
		a := Assign(tb, m.Cfg.ExpertsPerLayer, 6, eps, g)
		if got := len(a.Exploit) + len(a.Explore); got != 6 {
			t.Fatalf("eps=%v: %d total slots, want 6", eps, got)
		}
		want := int(math.Round(eps * 6))
		if want < 1 {
			want = 1
		}
		if len(a.Exploit) != want {
			t.Fatalf("eps=%v: %d exploit, want %d", eps, len(a.Exploit), want)
		}
		// No overlap between sets.
		seen := map[Key]bool{}
		for _, k := range append(append([]Key(nil), a.Exploit...), a.Explore...) {
			if seen[k] {
				t.Fatalf("expert %v assigned twice", k)
			}
			seen[k] = true
		}
	}
}

func TestAssignPicksHighestUtility(t *testing.T) {
	layers := []int{4, 4}
	tb := &UtilityTable{U: map[Key]float64{
		{0, 1}: 10, {0, 2}: 9, {1, 3}: 8, {1, 0}: 0.1,
	}}
	a := Assign(tb, layers, 3, 1.0, tensor.NewRNG(3))
	want := map[Key]bool{{0, 1}: true, {0, 2}: true, {1, 3}: true}
	if len(a.Exploit) != 3 {
		t.Fatalf("%d exploit", len(a.Exploit))
	}
	for _, k := range a.Exploit {
		if !want[k] {
			t.Fatalf("unexpected exploit expert %v", k)
		}
	}
}

func TestAssignBudgetClamp(t *testing.T) {
	tb := &UtilityTable{U: map[Key]float64{}}
	a := Assign(tb, []int{2}, 99, 0.5, tensor.NewRNG(4))
	if len(a.Exploit)+len(a.Explore) != 2 {
		t.Fatal("budget should clamp to expert count")
	}
}

func TestTuningConversion(t *testing.T) {
	a := Assignment{Exploit: []Key{{1, 3}, {0, 2}, {1, 1}}}
	tuning := a.Tuning(3)
	if len(tuning) != 3 {
		t.Fatalf("%d layers", len(tuning))
	}
	if len(tuning[0]) != 1 || tuning[0][0] != 2 {
		t.Fatalf("layer 0 = %v", tuning[0])
	}
	if len(tuning[1]) != 2 || tuning[1][0] != 1 || tuning[1][1] != 3 {
		t.Fatalf("layer 1 = %v (must be sorted)", tuning[1])
	}
	if len(tuning[2]) != 0 {
		t.Fatal("layer 2 should be empty")
	}
}

func TestEpsilonSchedules(t *testing.T) {
	f := FixedEpsilon(0.7)
	if f.Epsilon(0) != 0.7 || f.Epsilon(100) != 0.7 {
		t.Fatal("fixed epsilon should not vary")
	}
	d := DynamicEpsilon{Start: 0.3, End: 0.9, Rounds: 7}
	if d.Epsilon(0) != 0.3 {
		t.Fatalf("start = %v", d.Epsilon(0))
	}
	if math.Abs(d.Epsilon(6)-0.9) > 1e-12 {
		t.Fatalf("end = %v", d.Epsilon(6))
	}
	if math.Abs(d.Epsilon(100)-0.9) > 1e-12 {
		t.Fatal("should clamp past the schedule")
	}
	mid := d.Epsilon(3)
	if mid <= 0.3 || mid >= 0.9 {
		t.Fatalf("mid = %v", mid)
	}
	if (DynamicEpsilon{Start: 0.1, End: 0.8, Rounds: 1}).Epsilon(0) != 0.8 {
		t.Fatal("degenerate schedule should return End")
	}
}

func TestRefreshFromGrads(t *testing.T) {
	m, seqs, masks := fixture(t)
	grads := moe.NewGrads(m, false)
	for i, seq := range seqs {
		m.ForwardBackwardWS(nil, seq, masks[i], grads, nil, -1)
	}
	// Fold the measured gradients in the way the flux runner does per
	// exploited expert (the fixture model has no frozen experts, so every
	// routed expert has counters).
	tb := &UtilityTable{U: map[Key]float64{}}
	for l := range grads.TokenGradCount {
		for e, c := range grads.TokenGradCount[l] {
			if c > 0 {
				tb.Set(Key{l, e}, Utility(c, grads.AvgTokenGradNorm(l, e)))
			}
		}
	}
	var touched int
	//fluxvet:unordered integer count of positive entries; order cannot affect it
	for _, u := range tb.U {
		if u > 0 {
			touched++
		}
	}
	if touched == 0 {
		t.Fatal("refresh recorded no utilities")
	}
}

// probeOne is ProbeExploreSPSA on the single expert key, drawing from g.
func probeOne(m *moe.Model, ws *moe.Workspace, key Key, seqs [][]int, masks [][]bool, probes int, sigma float64, g *tensor.RNG) SPSAResult {
	return ProbeExploreSPSA(m, ws, []Key{key}, seqs, masks, probes, sigma, func(Key) *tensor.RNG { return g })[0]
}

func TestSPSARestoresModel(t *testing.T) {
	m, seqs, masks := fixture(t)
	before := m.ExpertAt(0, 0).FlattenTo(nil)
	probeOne(m, nil, Key{0, 0}, seqs[:2], masks[:2], 3, 0.01, tensor.NewRNG(5))
	after := m.ExpertAt(0, 0).FlattenTo(nil)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("SPSA did not restore expert parameters")
		}
	}
}

func TestSPSAApproximatesTrueGradient(t *testing.T) {
	// Figure 18's claim: the forward-only estimate points in roughly the
	// same direction as backprop (paper reports mean cosine distance 0.29).
	// With a modest probe count we accept anything meaningfully better than
	// orthogonal (distance < 0.9 means positive correlation).
	m, seqs, masks := fixture(t)
	// Find an expert that actually receives gradient.
	grads := moe.NewGrads(m, false)
	for i, seq := range seqs {
		m.ForwardBackwardWS(nil, seq, masks[i], grads, nil, -1)
	}
	var key Key
	var bestNorm float64
	for l := range grads.TokenGradCount {
		for e, c := range grads.TokenGradCount[l] {
			if c > bestNorm {
				bestNorm = c
				key = Key{l, e}
			}
		}
	}
	truth := TrueExpertGradient(m, key, seqs, masks)
	est := probeOne(m, nil, key, seqs, masks, 24, 0.01, tensor.NewRNG(6))
	d := tensor.CosineDist(truth, est.Direction)
	if math.IsNaN(d) || d > 0.9 {
		t.Fatalf("SPSA direction distance %v; not better than random", d)
	}
	if est.Norm <= 0 {
		t.Fatal("SPSA norm should be positive for an active expert")
	}
}

// estimateGradientSPSA is the single-expert SPSA estimate, kept as the
// oracle ProbeExploreSPSA's batched sweep is held to bit for bit: for each
// probe a random unit direction u is applied as a σ-scaled perturbation,
// and the directional derivative is approximated by the loss difference.
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
func estimateGradientSPSA(m *moe.Model, ws *moe.Workspace, key Key, seqs [][]int, masks [][]bool, probes int, sigma float64, g *tensor.RNG) SPSAResult {
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
		x := m.ForwardPrefixWS(ws, seq, key.Layer, nil, -1)
		baseSum += m.LossSuffixWS(ws, x, key.Layer, seq, mask)
		for p := 0; p < probes; p++ {
			if !live[p] {
				continue
			}
			u := us[p*dim : (p+1)*dim]
			for i := range pert {
				pert[i] = flat[i] + float64(sigma*u[i])
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
		sqSum += float64(delta * delta)
		for i := range dir {
			dir[i] += float64(delta * u[i])
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

// referenceSPSA is the straightforward implementation — a full forward pass
// for every loss evaluation, directions drawn between evaluations — that the
// prefix-cached production path must match bit for bit.
func referenceSPSA(m *moe.Model, key Key, seqs [][]int, masks [][]bool, probes int, sigma float64, g *tensor.RNG) SPSAResult {
	ex := m.ExpertAt(key.Layer, key.Expert)
	flat := ex.FlattenTo(nil)
	dim := len(flat)
	lossAt := func() float64 {
		var s float64
		for i, seq := range seqs {
			s += m.LossWS(nil, seq, masks[i])
		}
		return s / float64(len(seqs))
	}
	base := lossAt()
	dir := make([]float64, dim)
	var sqSum float64
	u := make([]float64, dim)
	pert := make([]float64, dim)
	for p := 0; p < probes; p++ {
		for i := range u {
			u[i] = g.Norm()
		}
		n := tensor.Norm2(u)
		if n == 0 {
			continue
		}
		for i := range u {
			u[i] /= n
			pert[i] = flat[i] + sigma*u[i]
		}
		ex.LoadFlat(pert)
		delta := (lossAt() - base) / sigma
		ex.LoadFlat(flat)
		sqSum += delta * delta
		for i := range dir {
			dir[i] += delta * u[i]
		}
	}
	res := SPSAResult{Probes: probes, Direction: dir}
	if probes > 0 {
		res.Norm = math.Sqrt(sqSum / float64(probes) * float64(dim))
		scale := float64(dim) / float64(probes)
		for i := range dir {
			dir[i] *= scale
		}
	}
	return res
}

// TestSPSAPrefixCacheBitIdentity pins the prefix-cached SPSA (shared forward
// prefix below the probed layer, pre-drawn directions, buffers reused on one
// workspace) bit-identical to the reference full-forward implementation, for
// experts at every layer depth, through both the single-key oracle and
// ProbeExploreSPSA with one key.
func TestSPSAPrefixCacheBitIdentity(t *testing.T) {
	m, seqs, masks := fixture(t)
	ws := moe.NewWorkspace()
	for l := 0; l < len(m.Layers); l++ {
		key := Key{l, 1}
		want := referenceSPSA(m, key, seqs[:3], masks[:3], 4, 0.02, tensor.NewRNG(31))
		oracle := estimateGradientSPSA(m, ws, key, seqs[:3], masks[:3], 4, 0.02, tensor.NewRNG(31))
		if oracle.Norm != want.Norm || !slices.Equal(oracle.Direction, want.Direction) {
			t.Fatalf("layer %d: single-key oracle differs from the reference", l)
		}
		got := probeOne(m, ws, key, seqs[:3], masks[:3], 4, 0.02, tensor.NewRNG(31))
		if got.Norm != want.Norm {
			t.Fatalf("layer %d: norm %v != reference %v", l, got.Norm, want.Norm)
		}
		for i, w := range want.Direction {
			if got.Direction[i] != w {
				t.Fatalf("layer %d: direction[%d] %v != reference %v", l, i, got.Direction[i], w)
			}
		}
	}
}

// TestProbeExploreSPSABatchedBitIdentity pins the batched multi-expert sweep
// (one baseline pass, descending-layer suffix probes) against independent
// per-expert estimates, including two experts in the same layer and keys
// passed in ascending-layer order.
func TestProbeExploreSPSABatchedBitIdentity(t *testing.T) {
	m, seqs, masks := fixture(t)
	keys := []Key{{0, 2}, {1, 0}, {1, 3}, {2, 1}}
	split := func(k Key) *tensor.RNG {
		return tensor.Named("probe-test").Split(fmt.Sprintf("e%d.%d", k.Layer, k.Expert))
	}
	got := ProbeExploreSPSA(m, moe.NewWorkspace(), keys, seqs[:3], masks[:3], 3, 0.02, split)
	after := m.ExpertAt(1, 0).FlattenTo(nil)
	for i, key := range keys {
		want := estimateGradientSPSA(m, nil, key, seqs[:3], masks[:3], 3, 0.02, split(key))
		if got[i].Norm != want.Norm {
			t.Fatalf("key %v: batched norm %v != independent %v", key, got[i].Norm, want.Norm)
		}
		for j, w := range want.Direction {
			if got[i].Direction[j] != w {
				t.Fatalf("key %v: direction[%d] differs", key, j)
			}
		}
	}
	if now := m.ExpertAt(1, 0).FlattenTo(nil); len(now) != len(after) {
		t.Fatal("expert shape changed")
	}
}

// TestProbeExploreSPSAUnroutedKeysBitIdentity probes every expert of a
// model whose short sequences leave some experts unrouted, under one-row
// masks that leave some top-layer experts routed only outside the scored
// span, and holds each key to the single-key oracle, which runs every
// probe's suffix pass. It fails if the sweep skips a routed key or scores a
// skipped one as anything but the baseline.
func TestProbeExploreSPSAUnroutedKeysBitIdentity(t *testing.T) {
	cfg := moe.Uniform("assign-unrouted", 64, 10, 16, 3, 8, 2, 64)
	m := moe.MustNew(cfg, tensor.Named("assign-unrouted"))
	_, full, _ := fixture(t)
	var seqs [][]int
	var masks [][]bool
	for k, seq := range full[:3] {
		seq = seq[:6]
		mask := make([]bool, len(seq))
		mask[1+k] = true
		seqs, masks = append(seqs, seq), append(masks, mask)
	}
	var keys []Key
	for l, n := range cfg.ExpertsPerLayer {
		for e := 0; e < n; e++ {
			keys = append(keys, Key{l, e})
		}
	}

	// The fixture must hold both kinds of key the sweep skips.
	top := len(m.Layers) - 1
	ws := moe.NewWorkspace()
	var unrouted, outsideSpan int
	for si, seq := range seqs {
		stats := moe.NewActivationStats(cfg, false)
		m.ForwardWS(nil, seq, stats, -1)
		m.LossWS(ws, seq, masks[si])
		for _, k := range keys {
			if m.RoutesToWS(ws, k.Layer, k.Expert, masks[si]) {
				continue
			}
			unrouted++
			if k.Layer == top && stats.Counts[top][k.Expert] > 0 {
				outsideSpan++
			}
		}
	}
	if unrouted == 0 || outsideSpan == 0 {
		t.Fatalf("vacuous: %d unrouted (key, sequence) pairs, %d at the top layer routed only outside the span", unrouted, outsideSpan)
	}

	split := func(k Key) *tensor.RNG {
		return tensor.Named("unrouted-test").Split(fmt.Sprintf("e%d.%d", k.Layer, k.Expert))
	}
	got := ProbeExploreSPSA(m, moe.NewWorkspace(), keys, seqs, masks, 3, 0.02, split)
	for i, key := range keys {
		want := estimateGradientSPSA(m, nil, key, seqs, masks, 3, 0.02, split(key))
		if got[i].Norm != want.Norm || !slices.Equal(got[i].Direction, want.Direction) {
			t.Fatalf("key %v: sweep norm %v, oracle %v (or directions differ)", key, got[i].Norm, want.Norm)
		}
	}
}

func TestSPSAZeroProbes(t *testing.T) {
	m, seqs, masks := fixture(t)
	res := probeOne(m, nil, Key{0, 0}, seqs[:1], masks[:1], 0, 0.01, tensor.NewRNG(7))
	if res.Norm != 0 {
		t.Fatal("zero probes should give zero norm")
	}
}

func TestTrueGradientUntouchedExpert(t *testing.T) {
	m, seqs, masks := fixture(t)
	// An expert that saw no tokens gets a zero gradient vector of the right
	// length, not a panic.
	g := TrueExpertGradient(m, Key{0, 0}, seqs[:1], masks[:1])
	if len(g) != len(m.ExpertAt(0, 0).FlattenTo(nil)) {
		t.Fatal("gradient length mismatch")
	}
}
