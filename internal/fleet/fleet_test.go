package fleet

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/simtime"
)

func specWith(policy string, k int) Spec {
	sel := SelectorSpec{Policy: policy, K: k}
	if policy == "bandwidth" {
		sel.OverProvision = 0.5
	}
	return Spec{
		Distribution: "tiered",
		Selector:     sel,
		Seed:         "test",
	}
}

// TestCohortDeterminism pins the core selection contract: same seed and
// round means the same cohort, bit for bit, across repeated calls and across
// every built-in policy — and a different seed or round changes it.
func TestCohortDeterminism(t *testing.T) {
	const n = 12
	for _, policy := range Policies() {
		t.Run(policy, func(t *testing.T) {
			spec := specWith(policy, 5)
			a := spec.Cohort(3, n)
			b := spec.Cohort(3, n)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("cohort not idempotent: %v vs %v", a, b)
			}
			if !sort.IntsAreSorted(a) {
				t.Fatalf("cohort not sorted: %v", a)
			}
			if policy != "all" && len(a) != 5 {
				t.Fatalf("cohort size %d, want 5: %v", len(a), a)
			}
			seen := map[int]bool{}
			for _, i := range a {
				if i < 0 || i >= n {
					t.Fatalf("cohort member %d outside [0,%d)", i, n)
				}
				if seen[i] {
					t.Fatalf("duplicate cohort member %d in %v", i, a)
				}
				seen[i] = true
			}
			if policy == "all" {
				return
			}
			other := spec
			other.Seed = "other"
			if c := other.Cohort(3, n); reflect.DeepEqual(a, c) {
				// One colliding round is conceivable but all ten agreeing is
				// not; check a window.
				same := true
				for r := 0; r < 10; r++ {
					if !reflect.DeepEqual(spec.Cohort(r, n), other.Cohort(r, n)) {
						same = false
						break
					}
				}
				if same {
					t.Fatal("different seeds produced identical cohorts for 10 rounds")
				}
			}
		})
	}
}

// TestCohortPinned pins exact seeded cohorts so selection can never drift
// silently: any change to the RNG derivation or the policies' draw order is
// a visible, reviewable diff here.
func TestCohortPinned(t *testing.T) {
	cases := []struct {
		policy string
		k      int
		round  int
		want   []int
	}{
		{"uniform", 4, 0, []int{0, 1, 5, 8}},
		{"uniform", 4, 1, []int{3, 4, 6, 9}},
		{"power-of-choice", 4, 0, []int{1, 8, 9, 11}},
		{"bandwidth", 4, 0, []int{1, 2, 5, 8}},
	}
	for _, tc := range cases {
		got := specWith(tc.policy, tc.k).Cohort(tc.round, 12)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s k=%d round=%d: cohort %v, want %v (selection drift — update only if intentional)",
				tc.policy, tc.k, tc.round, got, tc.want)
		}
	}
}

// TestUniformKCoverage checks the fairness property the engine relies on
// for convergence: under uniform sampling every participant is selected
// again and again, not starved.
func TestUniformKCoverage(t *testing.T) {
	const n, k, rounds = 10, 3, 400
	spec := Spec{Distribution: "uniform", Selector: SelectorSpec{Policy: "uniform", K: k}, Seed: "coverage"}
	counts := make([]int, n)
	for r := 0; r < rounds; r++ {
		c := spec.Cohort(r, n)
		if len(c) != k {
			t.Fatalf("round %d: cohort size %d, want %d", r, len(c), k)
		}
		for _, i := range c {
			counts[i]++
		}
	}
	// Expectation is rounds*k/n = 120 selections each; require every
	// participant to get at least a third of its fair share.
	for i, c := range counts {
		if c < rounds*k/n/3 {
			t.Errorf("participant %d selected only %d/%d rounds — starved", i, c, rounds)
		}
	}
}

// TestSpeedBiasedSelectors checks the documented biases: power-of-choice
// and bandwidth-aware selection favor fast devices on a tiered fleet.
func TestSpeedBiasedSelectors(t *testing.T) {
	const n, k, rounds = 12, 4, 300
	for _, policy := range []string{"power-of-choice", "bandwidth"} {
		spec := specWith(policy, k)
		counts := make([]int, n)
		for r := 0; r < rounds; r++ {
			for _, i := range spec.Cohort(r, n) {
				counts[i]++
			}
		}
		// tiered cycles slow/mid/fast; compare class totals.
		var slow, fast int
		for i, c := range counts {
			switch i % 3 {
			case 0:
				slow += c
			case 2:
				fast += c
			}
		}
		if fast <= slow {
			t.Errorf("%s: fast class selected %d times vs slow %d — bias missing", policy, fast, slow)
		}
		// Bias, not starvation: everyone still gets picked sometimes.
		for i, c := range counts {
			if c == 0 {
				t.Errorf("%s: participant %d never selected in %d rounds", policy, i, rounds)
			}
		}
	}
}

// TestSelectorsRankByEffectiveSpeed pins that speed-biased selectors rank
// by composed tier×profile hardware, not profile multipliers alone: with a
// single identity profile (every multiplier ties at 1), the base
// consumer-tier spread must still bias bandwidth-aware selection toward
// high-tier devices.
func TestSelectorsRankByEffectiveSpeed(t *testing.T) {
	spec := Spec{
		Selector: SelectorSpec{Policy: "bandwidth", K: 4, OverProvision: 1},
		Seed:     "effective",
	}
	const n, rounds = 12, 300
	counts := make([]int, n)
	for r := 0; r < rounds; r++ {
		for _, i := range spec.Cohort(r, n) {
			counts[i]++
		}
	}
	var low, high int
	for i, c := range counts {
		switch i % 3 { // simtime.ConsumerTiers cycles low/mid/high
		case 0:
			low += c
		case 2:
			high += c
		}
	}
	if high <= low {
		t.Errorf("bandwidth selection ignored the base-tier spread: high-tier %d vs low-tier %d", high, low)
	}
}

// TestAvailability checks probabilistic availability and the trace override.
func TestAvailability(t *testing.T) {
	flaky := Spec{Distribution: "flaky", Seed: "avail"}
	const n, rounds = 10, 300
	var total int
	for r := 0; r < rounds; r++ {
		avail := flaky.Available(r, n)
		if len(avail) == 0 {
			t.Fatalf("round %d: empty availability should have fallen back to the full fleet", r)
		}
		total += len(avail)
	}
	frac := float64(total) / float64(n*rounds)
	if frac < 0.6 || frac > 0.8 {
		t.Errorf("flaky availability fraction %.3f, want ≈0.7", frac)
	}

	tr := &Trace{Rounds: [][]int{{0, 2, 4}, {1, 3}}}
	spec := Spec{Trace: tr, Seed: "trace"}
	if got := spec.Available(0, 10); !reflect.DeepEqual(got, []int{0, 2, 4}) {
		t.Errorf("trace round 0: %v", got)
	}
	if got := spec.Available(1, 10); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Errorf("trace round 1: %v", got)
	}
	// Traces cycle.
	if got := spec.Available(2, 10); !reflect.DeepEqual(got, []int{0, 2, 4}) {
		t.Errorf("trace round 2 (cycled): %v", got)
	}
	// Out-of-range ids are filtered, duplicates deduplicated.
	messy := Spec{Trace: &Trace{Rounds: [][]int{{5, 5, 99, 1, -1}}}}
	if got := messy.Available(0, 10); !reflect.DeepEqual(got, []int{1, 5}) {
		t.Errorf("messy trace: %v", got)
	}
}

func TestParseTrace(t *testing.T) {
	tr, err := ParseTrace([]byte(`{"rounds": [[0,1],[2]]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Rounds) != 2 {
		t.Fatalf("rounds %v", tr.Rounds)
	}
	if _, err := ParseTrace([]byte(`{"rounds": []}`)); err == nil {
		t.Fatal("empty trace should be rejected")
	}
	if _, err := ParseTrace([]byte(`not json`)); err == nil {
		t.Fatal("malformed trace should be rejected")
	}
	if _, err := ParseTrace([]byte(`{"rounds":[[0]]} {"rounds":[[-1]]}`)); err == nil {
		t.Fatal("data after the trace should be rejected")
	}
	if _, err := ParseTrace([]byte("{\"rounds\":[[0]]}\n\t ")); err != nil {
		t.Fatalf("trailing whitespace rejected: %v", err)
	}
}

func TestProfileApply(t *testing.T) {
	base := simtime.ConsumerTiers()[0]
	// Identity (and zero) profiles leave the device bit-identical.
	for _, p := range []Profile{{}, Uniform()} {
		if got := p.Apply(base); got != base {
			t.Fatalf("identity profile changed the device: %+v vs %+v", got, base)
		}
	}
	p := Profile{Name: "s", Compute: 0.5, Uplink: 0.25, Downlink: 0.75}
	got := p.Apply(base)
	if got.Flops != base.Flops*0.5 || got.PCIeBw != base.PCIeBw*0.5 {
		t.Errorf("compute scaling wrong: %+v", got)
	}
	if got.NetBw != base.NetBw*0.25 || got.DownBw != base.NetBw*0.75 {
		t.Errorf("link scaling wrong: %+v", got)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("scaled device invalid: %v", err)
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"zero spec", Spec{}, true},
		{"named distribution", Spec{Distribution: "longtail"}, true},
		{"unknown distribution", Spec{Distribution: "datacenter"}, false},
		{"distribution plus profiles", Spec{Distribution: "uniform", Profiles: []Profile{Uniform()}}, false},
		{"negative multiplier", Spec{Profiles: []Profile{{Compute: -1}}}, false},
		{"availability above one", Spec{Profiles: []Profile{{Availability: 1.5}}}, false},
		{"selector without k", Spec{Selector: SelectorSpec{Policy: "uniform"}}, false},
		{"selector k without policy", Spec{Selector: SelectorSpec{K: 8}}, false},
		{"bandwidth zero over-provision", Spec{Selector: SelectorSpec{Policy: "bandwidth", K: 4}}, true},
		{"unknown policy", Spec{Selector: SelectorSpec{Policy: "random"}}, false},
		{"negative deadline", Spec{Deadline: -5}, false},
		{"NaN availability", Spec{Profiles: []Profile{{Availability: math.NaN()}}}, false},
		{"drop without deadline", Spec{Drop: true, Selector: SelectorSpec{Policy: "uniform", K: 2}}, false},
		{"drop alone", Spec{Drop: true}, false},
		{"valid drop", Spec{Deadline: 100, Drop: true}, true},
		{"trace out of range", Spec{Trace: &Trace{Rounds: [][]int{{7}}}}, false},
		{"trace with empty round", Spec{Trace: &Trace{Rounds: [][]int{{0, 1}, {}}}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate(5)
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("invalid spec accepted")
			}
		})
	}
}

// TestInactiveSpecIsIdentity pins the superset guarantee at the unit level:
// a zero Spec selects everyone, scales nothing, and never drops.
func TestInactiveSpecIsIdentity(t *testing.T) {
	var spec Spec
	if spec.Active() {
		t.Fatal("zero spec claims to be active")
	}
	if got := spec.Cohort(7, 4); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Fatalf("zero-spec cohort %v", got)
	}
	base := simtime.ConsumerTiers()[1]
	if got := spec.ProfileFor(3).Apply(base); got != base {
		t.Fatalf("zero-spec profile changed the device")
	}
}
