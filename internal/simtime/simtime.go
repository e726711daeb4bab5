// Package simtime provides the simulated testbed: consumer-GPU device
// profiles, an analytic cost model for every operation the federated
// fine-tuning loop performs (training compute, quantization, profiling,
// host↔GPU expert offloading, network transfer), and a simulated clock.
//
// The paper's headline metric is time-to-accuracy on a physical testbed.
// Here model updates are real (actual SGD on the Go MoE substrate) but
// wall-clock is simulated: each operation advances the clock by a cost
// computed from the device profile and the operation's size. Throughput
// constants are calibrated so that a full-model offloading round lands in
// the paper's "hours per run" regime; only relative costs (who wins, by
// what factor, where crossovers fall) are claimed, not absolute seconds.
package simtime

import (
	"fmt"
	"slices"

	"repro/internal/moe"
)

// Device models one participant's hardware.
type Device struct {
	Name string

	// Flops is effective training throughput in sim-FLOP/s. Sim-FLOPs are
	// computed from the reduced model's real arithmetic, so this constant is
	// small compared to physical GPUs; see the package comment.
	Flops float64

	// PCIeBw is host↔GPU transfer bandwidth in bytes/s; FMD-style expert
	// offloading pays this for every expert it swaps.
	PCIeBw float64

	// NetBw and NetLatency model the WAN link to the parameter server.
	// NetBw is the uplink bandwidth in bytes/s.
	NetBw      float64
	NetLatency float64

	// DownBw is the server→participant bandwidth in bytes/s; zero means
	// symmetric (the uplink NetBw is used), so legacy homogeneous devices
	// behave exactly as before asymmetric links existed.
	DownBw float64

	// CapacityFrac is the fraction of the full model's experts the device
	// can hold in GPU memory (B_i / |E|), and TuneFrac the fraction it can
	// afford to fine-tune per round (B_tune_i / |E|).
	CapacityFrac float64
	TuneFrac     float64
}

// Validate reports the first invalid field, or nil.
func (d Device) Validate() error {
	switch {
	case d.Flops <= 0 || d.PCIeBw <= 0 || d.NetBw <= 0:
		return fmt.Errorf("simtime: device %q has non-positive throughput", d.Name)
	case d.DownBw < 0:
		return fmt.Errorf("simtime: device %q downlink bandwidth %v must be non-negative (0 = symmetric)", d.Name, d.DownBw)
	case d.CapacityFrac <= 0 || d.CapacityFrac > 1:
		return fmt.Errorf("simtime: device %q capacity fraction %v out of (0,1]", d.Name, d.CapacityFrac)
	case d.TuneFrac <= 0 || d.TuneFrac > d.CapacityFrac:
		return fmt.Errorf("simtime: device %q tune fraction %v invalid", d.Name, d.TuneFrac)
	}
	return nil
}

// ConsumerTiers returns the three consumer-GPU tiers used in experiments.
// The spread (4× compute between low and high) mirrors the heterogeneity the
// paper targets.
func ConsumerTiers() []Device {
	return []Device{
		{Name: "consumer-low", Flops: 2e5, PCIeBw: 300, NetBw: 1.2e3, NetLatency: 0.1,
			CapacityFrac: 0.35, TuneFrac: 0.10},
		{Name: "consumer-mid", Flops: 4e5, PCIeBw: 500, NetBw: 2.0e3, NetLatency: 0.08,
			CapacityFrac: 0.50, TuneFrac: 0.15},
		{Name: "consumer-high", Flops: 8e5, PCIeBw: 900, NetBw: 3.2e3, NetLatency: 0.05,
			CapacityFrac: 0.65, TuneFrac: 0.25},
	}
}

// TierFor deterministically assigns tier i of tiers to participant idx
// (round-robin), reproducing a fixed heterogeneous fleet.
func TierFor(tiers []Device, idx int) Device { return tiers[idx%len(tiers)] }

// ForwardFlops returns the arithmetic cost of one forward pass over tokens
// tokens: attention projections + attention mixing + top-k expert FFNs,
// multiply-accumulate counted as 2 FLOPs.
func ForwardFlops(cfg moe.Config, tokens int) float64 {
	d, f := float64(cfg.Dim), float64(cfg.FFNDim)
	seq := float64(cfg.MaxSeqLen)
	perTokenAttn := float64(3*2*d*d) + float64(2*2*seq*d) // projections + score/mix over the context
	perTokenExpert := float64(float64(cfg.TopK) * 2 * 2 * d * f)
	perTokenGate := float64(2 * d * avgExperts(cfg))
	return float64(tokens) * float64(cfg.Layers()) * (perTokenAttn + perTokenExpert + perTokenGate)
}

func avgExperts(cfg moe.Config) float64 {
	var s float64
	for _, e := range cfg.ExpertsPerLayer {
		s += float64(e)
	}
	return s / float64(cfg.Layers())
}

// TrainFlops returns the cost of a training step: forward plus backward.
// Backward costs 2× forward on the fraction of expert compute that is
// trainable (tuningFrac of expert FLOPs) plus 1× forward for pure gradient
// propagation through frozen parts.
func TrainFlops(cfg moe.Config, tokens int, tuningFrac float64) float64 {
	fwd := ForwardFlops(cfg, tokens)
	return fwd * (2 + tuningFrac)
}

// ExpertBytes returns the FP32 size of one expert.
func ExpertBytes(cfg moe.Config) float64 { return float64(cfg.ExpertParams()) * 4 }

// ModelBytes returns the FP32 size of the full model.
func ModelBytes(cfg moe.Config) float64 { return float64(cfg.TotalParams()) * 4 }

// Seconds converts flops to seconds on device d.
func (d Device) Seconds(flops float64) float64 { return flops / d.Flops }

// QuantizeSeconds is the cost of quantizing the full model: a single
// compute-light pass over all parameters (≈8 FLOPs per byte for scale
// search, rounding, and packing).
func (d Device) QuantizeSeconds(cfg moe.Config) float64 {
	return d.Seconds(8 * ModelBytes(cfg))
}

// ProfileSeconds is the cost of a profiling pass over tokens tokens using a
// bits-bit quantized model: quantized inference runs ~32/bits faster than
// FP32 on the same device.
func (d Device) ProfileSeconds(cfg moe.Config, tokens int, bits int) float64 {
	speedup := 32.0 / float64(bits)
	return d.Seconds(ForwardFlops(cfg, tokens)) / speedup
}

// OffloadSeconds is the host↔GPU transfer cost of shuttling n experts, the
// recurring tax the FMD baseline pays each batch.
func (d Device) OffloadSeconds(cfg moe.Config, n int) float64 {
	return float64(n) * ExpertBytes(cfg) / d.PCIeBw
}

// UplinkSeconds is the cost of sending bytes to the parameter server.
func (d Device) UplinkSeconds(bytes float64) float64 {
	return d.NetLatency + bytes/d.NetBw
}

// DownlinkSeconds is the cost of receiving bytes from the parameter server.
// Devices with a zero DownBw have symmetric links and price downloads
// exactly like uploads.
func (d Device) DownlinkSeconds(bytes float64) float64 {
	bw := d.DownBw
	if bw == 0 {
		bw = d.NetBw
	}
	return d.NetLatency + bytes/bw
}

// Phase labels a component of round time for the overhead breakdown
// (Figure 20).
type Phase string

// Round phases.
const (
	PhaseProfiling  Phase = "profiling"
	PhaseMerging    Phase = "merging"
	PhaseAssignment Phase = "assignment"
	PhaseFineTuning Phase = "fine-tuning"
	PhaseComm       Phase = "communication"

	// PhaseStraggler is server idle time at a straggler deadline: with a
	// drop policy, the round lasts until the deadline even when every kept
	// participant finished earlier, and the shortfall is attributed here so
	// deadline cost is visible in the breakdown.
	PhaseStraggler Phase = "straggler-wait"
)

// CanonicalPhases returns the built-in round phases in their execution
// order: profiling, merging, assignment, fine-tuning, communication, and
// finally straggler-wait (server idle happens after the last kept
// participant). The observability layer lays spans out along a round in this
// order, so traces of different methods line up phase for phase. Methods may
// report Phase values beyond these; consumers append unknown phases in
// sorted order after the canonical ones.
func CanonicalPhases() []Phase {
	return []Phase{PhaseProfiling, PhaseMerging, PhaseAssignment, PhaseFineTuning, PhaseComm, PhaseStraggler}
}

// PhaseOrder appends the keys of phases to dst, first those named in first,
// in that order, then every other key sorted, and returns the extended
// slice. Both orders a phase map is folded in are part of the bit-identity
// contract: with first = CanonicalPhases() it is execution order, the order
// the observability layer serializes phases in and the synchronous barrier
// folds them in; with first = nil it is plain sorted order, the order a
// Clock advances in, the event-driven modes fold arrivals in and the wire
// carries phases in. A dst with room for every key keeps the call
// allocation-free.
func PhaseOrder[K ~string, V any](dst []K, phases map[K]V, first []Phase) []K {
	dst = slices.Grow(dst, len(phases))
	n := len(dst)
	for _, p := range first {
		if _, ok := phases[K(p)]; ok {
			dst = append(dst, K(p))
		}
	}
	if len(dst)-n < len(phases) {
		extras := len(dst)
		//fluxvet:unordered keys are collected then sorted before use
		for k := range phases {
			if !slices.Contains(first, Phase(k)) {
				dst = append(dst, k)
			}
		}
		slices.Sort(dst[extras:])
	}
	return dst
}

// Clock is a simulated wall clock with a per-phase breakdown.
type Clock struct {
	seconds float64
	byPhase map[Phase]float64
}

// NewClock returns a clock at time zero.
func NewClock() *Clock { return &Clock{byPhase: make(map[Phase]float64)} }

// Advance moves the clock forward by sec seconds attributed to phase.
// Negative durations are ignored.
func (c *Clock) Advance(phase Phase, sec float64) {
	if sec <= 0 {
		return
	}
	c.seconds += sec
	c.byPhase[phase] += sec
}

// AdvanceAll advances the clock by every entry of phases in lexicographic
// phase order. Iterating a Go map directly would accumulate the total in
// randomized order and drift its last bit between runs; every round driver
// must fold a phase map through this method to keep simulated time
// bit-reproducible.
func (c *Clock) AdvanceAll(phases map[Phase]float64) {
	var keys [8]Phase
	for _, p := range PhaseOrder(keys[:0], phases, nil) {
		c.Advance(p, phases[p])
	}
}

// Seconds returns the current simulated time in seconds.
func (c *Clock) Seconds() float64 { return c.seconds }

// Hours returns the current simulated time in hours.
func (c *Clock) Hours() float64 { return c.seconds / 3600 }

// Breakdown returns a copy of the per-phase accumulation.
func (c *Clock) Breakdown() map[Phase]float64 {
	out := make(map[Phase]float64, len(c.byPhase))
	//fluxvet:unordered map-to-map copy; per-key writes, element order irrelevant
	for k, v := range c.byPhase {
		out[k] = v
	}
	return out
}
