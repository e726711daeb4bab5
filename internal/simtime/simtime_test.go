package simtime

import (
	"slices"
	"testing"

	"repro/internal/moe"
)

func cfg() moe.Config { return moe.SimConfigLLaMATrain() }

func TestTiersValid(t *testing.T) {
	tiers := ConsumerTiers()
	if len(tiers) != 3 {
		t.Fatalf("%d tiers", len(tiers))
	}
	for _, d := range tiers {
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	// High tier must be strictly faster and roomier than low tier.
	lo, hi := tiers[0], tiers[2]
	if hi.Flops <= lo.Flops || hi.CapacityFrac <= lo.CapacityFrac {
		t.Fatal("tier ordering violated")
	}
}

func TestDeviceValidateRejects(t *testing.T) {
	bad := []Device{
		{Name: "a", Flops: 0, PCIeBw: 1, NetBw: 1, CapacityFrac: 0.5, TuneFrac: 0.1},
		{Name: "b", Flops: 1, PCIeBw: 1, NetBw: 1, CapacityFrac: 1.5, TuneFrac: 0.1},
		{Name: "c", Flops: 1, PCIeBw: 1, NetBw: 1, CapacityFrac: 0.5, TuneFrac: 0.6},
		{Name: "d", Flops: 1, PCIeBw: 1, NetBw: 1, CapacityFrac: 0.5, TuneFrac: 0},
	}
	for _, d := range bad {
		if err := d.Validate(); err == nil {
			t.Fatalf("device %q should be invalid", d.Name)
		}
	}
}

func TestTierForRoundRobin(t *testing.T) {
	tiers := ConsumerTiers()
	if TierFor(tiers, 0).Name != TierFor(tiers, 3).Name {
		t.Fatal("round-robin broken")
	}
	if TierFor(tiers, 0).Name == TierFor(tiers, 1).Name {
		t.Fatal("adjacent participants should differ")
	}
}

func TestForwardFlopsScaling(t *testing.T) {
	c := cfg()
	f1 := ForwardFlops(c, 100)
	f2 := ForwardFlops(c, 200)
	if f2 <= f1 {
		t.Fatal("flops must grow with tokens")
	}
	// Doubling experts per layer grows gate cost only, so total grows but
	// sublinearly.
	c2 := moe.Uniform(c.Name, c.VocabSize, c.Dim, c.FFNDim, c.Layers(), c.ExpertsPerLayer[0]*2, c.TopK, c.MaxSeqLen)
	if ForwardFlops(c2, 100) <= f1 {
		t.Fatal("more experts should not be cheaper")
	}
}

func TestTrainFlopsExceedsForward(t *testing.T) {
	c := cfg()
	if TrainFlops(c, 100, 0.2) <= ForwardFlops(c, 100) {
		t.Fatal("training must cost more than inference")
	}
	if TrainFlops(c, 100, 1.0) <= TrainFlops(c, 100, 0.1) {
		t.Fatal("more tuning experts must cost more")
	}
}

func TestProfileCheaperAtFewerBits(t *testing.T) {
	d := ConsumerTiers()[1]
	c := cfg()
	p2 := d.ProfileSeconds(c, 1000, 2)
	p8 := d.ProfileSeconds(c, 1000, 8)
	full := d.Seconds(ForwardFlops(c, 1000))
	if !(p2 < p8 && p8 < full) {
		t.Fatalf("profile cost ordering wrong: %v %v %v", p2, p8, full)
	}
}

func TestOffloadCostScalesWithExperts(t *testing.T) {
	d := ConsumerTiers()[0]
	c := cfg()
	if d.OffloadSeconds(c, 10) <= d.OffloadSeconds(c, 1) {
		t.Fatal("offload cost must grow with expert count")
	}
}

func TestOffloadDominatesCompute(t *testing.T) {
	// The premise behind FMD's slowness (paper §8.2): shuttling experts
	// over PCIe must dwarf the compute of a local step on consumer tiers.
	d := ConsumerTiers()[0]
	c := cfg()
	compute := d.Seconds(TrainFlops(c, 16*c.MaxSeqLen, 1.0))
	// FMD shuttles roughly the uncached fraction of experts in and out
	// every local step.
	total := c.Layers() * c.ExpertsPerLayer[0]
	loads := int(2 * (1 - d.CapacityFrac) * float64(total))
	offload := d.OffloadSeconds(c, loads)
	if offload < compute*0.3 {
		t.Fatalf("offload %v should be significant vs compute %v", offload, compute)
	}
}

func TestUplink(t *testing.T) {
	d := ConsumerTiers()[1]
	if d.UplinkSeconds(0) != d.NetLatency {
		t.Fatal("zero bytes should cost exactly latency")
	}
	if d.UplinkSeconds(1e6) <= d.UplinkSeconds(1e3) {
		t.Fatal("uplink must scale with bytes")
	}
}

func TestClock(t *testing.T) {
	c := NewClock()
	c.Advance(PhaseProfiling, 10)
	c.Advance(PhaseFineTuning, 50)
	c.Advance(PhaseFineTuning, -5) // ignored
	if c.Seconds() != 60 {
		t.Fatalf("seconds = %v", c.Seconds())
	}
	if c.Hours() != 60.0/3600 {
		t.Fatalf("hours = %v", c.Hours())
	}
	if got := c.Breakdown()[PhaseFineTuning]; got != 50 {
		t.Fatalf("phase seconds = %v", got)
	}
	b := c.Breakdown()
	if b[PhaseProfiling] != 10 {
		t.Fatalf("breakdown = %v", b)
	}
	b[PhaseProfiling] = 999
	if c.Breakdown()[PhaseProfiling] != 10 {
		t.Fatal("breakdown must be a copy")
	}
}

// TestClockAdvanceAllDeterministic pins AdvanceAll's accumulation order:
// values chosen so that summing in a different order changes the total's
// last bit, which is exactly the drift map iteration used to cause.
func TestClockAdvanceAllDeterministic(t *testing.T) {
	phases := map[Phase]float64{
		PhaseProfiling:  0.1,
		PhaseMerging:    0.2,
		PhaseAssignment: 0.3,
		PhaseFineTuning: 1e9,
		PhaseComm:       0.7,
	}
	want := NewClock()
	// Lexicographic phase order, folded by repeated Advance.
	for _, p := range []Phase{PhaseAssignment, PhaseComm, PhaseFineTuning, PhaseMerging, PhaseProfiling} {
		want.Advance(p, phases[p])
	}
	for trial := 0; trial < 20; trial++ {
		c := NewClock()
		c.AdvanceAll(phases)
		if c.Seconds() != want.Seconds() {
			t.Fatalf("trial %d: AdvanceAll total %v, want %v", trial, c.Seconds(), want.Seconds())
		}
	}
}

func TestModelExpertBytes(t *testing.T) {
	c := cfg()
	if ExpertBytes(c) <= 0 || ModelBytes(c) <= ExpertBytes(c) {
		t.Fatal("byte accounting wrong")
	}
}

// TestPhaseOrder pins the two phase orders, canonical phases first and
// extras sorted after, and plain sorted order, for both key types that use
// them, and that a destination with room for every key is all the call
// needs.
func TestPhaseOrder(t *testing.T) {
	want := []string{"profiling", "fine-tuning", "communication", "alpha", "zeta"}
	byName := map[string]float64{"zeta": 1, "communication": 1, "fine-tuning": 1, "alpha": 1, "profiling": 1}
	if got := PhaseOrder(nil, byName, CanonicalPhases()); !slices.Equal(got, want) {
		t.Fatalf("PhaseOrder = %v, want %v", got, want)
	}
	byPhase := map[Phase]float64{"zeta": 1, PhaseComm: 1, PhaseFineTuning: 1, "alpha": 1, PhaseProfiling: 1}
	got := PhaseOrder([]Phase{"kept"}, byPhase, CanonicalPhases())
	if !slices.Equal(got, []Phase{"kept", "profiling", "fine-tuning", "communication", "alpha", "zeta"}) {
		t.Fatalf("PhaseOrder after a kept key = %v", got)
	}
	got = PhaseOrder([]Phase{"kept"}, byPhase, nil)
	if !slices.Equal(got, []Phase{"kept", "alpha", "communication", "fine-tuning", "profiling", "zeta"}) {
		t.Fatalf("sorted PhaseOrder after a kept key = %v", got)
	}
	var buf [8]Phase
	for _, first := range [][]Phase{CanonicalPhases(), nil} {
		if n := testing.AllocsPerRun(10, func() { PhaseOrder(buf[:0], byPhase, first) }); n != 0 {
			t.Fatalf("PhaseOrder(first %v) into a roomy destination allocates %v times", first, n)
		}
	}
	c := NewClock()
	if n := testing.AllocsPerRun(10, func() { c.AdvanceAll(byPhase) }); n != 0 {
		t.Fatalf("AdvanceAll allocates %v times", n)
	}
}
