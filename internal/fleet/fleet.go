// Package fleet models heterogeneous federated fleets: per-participant
// device profiles (compute and link multipliers, per-round availability),
// availability traces, cohort selection policies, and straggler deadlines.
//
// The fed engine treats a fleet.Spec as a strict superset of its default
// behavior: the zero Spec means "uniform devices, everyone participates in
// every round, no deadline", and every run under that zero value is
// bit-identical to a run before this package existed. A non-zero Spec scales
// each participant's simulated device, restricts each round to a selected
// cohort, and optionally enforces a round deadline with drop-or-wait
// straggler semantics.
//
// Everything here is deterministic in (Spec.Seed, round): cohort computation
// derives a fresh RNG per round from a named label rather than consuming a
// stateful stream, so Cohort is idempotent, independent of the method under
// test, and never perturbs the engine's model-training randomness.
package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/simtime"
	"repro/internal/tensor"
)

// Profile models one device class relative to the engine's base consumer
// tiers: multipliers over the assigned simtime.Device plus a per-round
// availability probability. The zero multipliers are normalized to 1 so a
// partially specified JSON profile degrades to "unchanged".
type Profile struct {
	// Name labels the class in traces, tables, and tests.
	Name string `json:"name,omitempty"`

	// Compute scales the device's local processing speed: training
	// throughput (sim-FLOP/s) and host↔GPU transfer bandwidth together, so
	// a slow device is slow at every on-device phase, not just arithmetic.
	Compute float64 `json:"compute,omitempty"`

	// Uplink and Downlink scale the device's WAN bandwidth in the
	// participant→server and server→participant directions.
	Uplink   float64 `json:"uplink,omitempty"`
	Downlink float64 `json:"downlink,omitempty"`

	// Availability is the probability the device is reachable in any given
	// round, in (0,1]. Zero is normalized to 1 (always available). An
	// explicit Trace overrides per-profile availability entirely.
	Availability float64 `json:"availability,omitempty"`
}

// Uniform returns the identity profile: the device is unchanged and always
// available.
func Uniform() Profile {
	return Profile{Name: "uniform", Compute: 1, Uplink: 1, Downlink: 1, Availability: 1}
}

// normalized fills zero fields with their identity values.
func (p Profile) normalized() Profile {
	if p.Compute == 0 {
		p.Compute = 1
	}
	if p.Uplink == 0 {
		p.Uplink = 1
	}
	if p.Downlink == 0 {
		p.Downlink = 1
	}
	if p.Availability == 0 {
		p.Availability = 1
	}
	return p
}

// Validate reports the first invalid field, or nil. Zero fields are legal
// (they normalize to the identity).
func (p Profile) Validate() error {
	n := p.normalized()
	switch {
	case p.Compute < 0:
		return fmt.Errorf("fleet: profile %q compute multiplier %v must be positive", p.Name, p.Compute)
	case p.Uplink < 0:
		return fmt.Errorf("fleet: profile %q uplink multiplier %v must be positive", p.Name, p.Uplink)
	case p.Downlink < 0:
		return fmt.Errorf("fleet: profile %q downlink multiplier %v must be positive", p.Name, p.Downlink)
	case n.Availability < 0 || n.Availability > 1 || math.IsNaN(n.Availability):
		return fmt.Errorf("fleet: profile %q availability %v out of (0,1]", p.Name, p.Availability)
	case !isFinite(n.Compute) || !isFinite(n.Uplink) || !isFinite(n.Downlink):
		return fmt.Errorf("fleet: profile %q has a non-finite multiplier", p.Name)
	}
	return nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Apply scales a base device by the profile's multipliers. A device is
// labeled with the profile name whenever the profile modifies it in any way
// — scaled hardware or sub-1 availability — so a "flaky" class is visible
// in device names even though its multipliers are identity. A fully
// identity profile returns d unchanged, bit-for-bit, which keeps inactive
// fleets indistinguishable from runs predating the subsystem.
func (p Profile) Apply(d simtime.Device) simtime.Device {
	n := p.normalized()
	identity := n.Compute == 1 && n.Uplink == 1 && n.Downlink == 1
	if identity && n.Availability == 1 {
		return d
	}
	if p.Name != "" {
		d.Name = d.Name + "/" + p.Name
	}
	if identity {
		return d
	}
	d.Flops *= n.Compute
	d.PCIeBw *= n.Compute
	// Scale an existing asymmetric downlink; a symmetric device (DownBw 0)
	// derives its downlink from the pre-scale uplink bandwidth. Either way
	// Apply composes: applying a second profile scales what the first left.
	down := d.DownBw
	if down == 0 {
		down = d.NetBw
	}
	d.DownBw = down * n.Downlink
	d.NetBw *= n.Uplink
	return d
}

// DeviceSpeed is the effective hardware a speed-biased selector ranks by:
// the participant's base consumer tier composed with its profile
// multipliers — the same composition the engine applies when building
// simulated devices, so selection ranks by what the round will actually
// run, not by multipliers alone (the base tiers themselves span ~2.7× in
// uplink and 4× in compute).
type DeviceSpeed struct {
	// Compute is effective training throughput (sim-FLOP/s); Uplink is
	// effective participant→server bandwidth (bytes/s).
	Compute, Uplink float64
}

// Score orders devices fastest-first: the product of compute and uplink, so
// a device is "fast" only if both its training and its upload are fast.
func (d DeviceSpeed) Score() float64 { return d.Compute * d.Uplink }

// consumerTiers is the engine's base hardware, priced once for selectors.
var consumerTiers = simtime.ConsumerTiers()

// speedFor prices participant i's effective speed. It mirrors the engine's
// device construction — profile multipliers over round-robin consumer tiers
// (simtime.TierFor) — and must stay in lockstep with fed.NewEnvContext.
func (s Spec) speedFor(i int) DeviceSpeed {
	d := s.ProfileFor(i).Apply(simtime.TierFor(consumerTiers, i))
	return DeviceSpeed{Compute: d.Flops, Uplink: d.NetBw}
}

// Distributions returns the names of the built-in synthetic fleet
// distributions, in stable order.
func Distributions() []string { return []string{"uniform", "tiered", "longtail", "flaky"} }

// builtinDistributions holds the built-in profile sets, constructed once.
// Internal callers read them through resolvedProfiles and never mutate;
// Distribution hands external callers a copy.
var builtinDistributions = func() map[string][]Profile {
	longtail := make([]Profile, 0, 9)
	// One straggler class per eight ordinary devices. The multipliers
	// are strong (10× slower compute) because they compose with the
	// engine's consumer tiers, which already span 4× — a straggler must
	// stay the slowest device regardless of which tier it lands on.
	for i := 0; i < 8; i++ {
		longtail = append(longtail, Profile{Name: fmt.Sprintf("normal-%d", i), Compute: 1, Uplink: 1, Downlink: 1, Availability: 1})
	}
	longtail = append(longtail, Profile{Name: "straggler", Compute: 0.1, Uplink: 0.15, Downlink: 0.15, Availability: 1})
	return map[string][]Profile{
		"uniform": {Uniform()},
		"tiered": {
			{Name: "slow", Compute: 0.5, Uplink: 0.5, Downlink: 0.5, Availability: 1},
			{Name: "mid", Compute: 1, Uplink: 1, Downlink: 1, Availability: 1},
			{Name: "fast", Compute: 2, Uplink: 2, Downlink: 2, Availability: 1},
		},
		"longtail": longtail,
		"flaky":    {{Name: "flaky", Compute: 1, Uplink: 1, Downlink: 1, Availability: 0.7}},
	}
}()

// Distribution returns the named built-in profile set. Profiles are assigned
// to participants round-robin (participant i gets profile i mod len).
//
//	uniform  — one identity profile; the homogeneous fleet.
//	tiered   — a 3-class compute/link spread (0.5×/1×/2×), always available.
//	longtail — eight ordinary devices plus one 10×-slow straggler class, the
//	           long tail that motivates deadlines.
//	flaky    — ordinary devices with 70% per-round availability.
func Distribution(name string) ([]Profile, error) {
	ps, ok := builtinDistributions[name]
	if !ok {
		return nil, fmt.Errorf("fleet: unknown distribution %q (known: %v)", name, Distributions())
	}
	return append([]Profile(nil), ps...), nil
}

// Trace is an explicit availability schedule: Rounds[r] lists the
// participant indices reachable in round r. Rounds cycle (round r uses entry
// r mod len(Rounds)), so a short trace describes a periodic pattern.
type Trace struct {
	Rounds [][]int `json:"rounds"`
}

// Validate reports the first invalid entry, or nil. Participant indices must
// be non-negative and below n when n > 0, and every round must name at least
// one participant — a synchronous round cannot run on an explicitly empty
// fleet, so an empty schedule entry is a configuration error rather than a
// silent fall-back to full participation.
func (t *Trace) Validate(n int) error {
	if t == nil {
		return nil
	}
	if len(t.Rounds) == 0 {
		return fmt.Errorf("fleet: trace has no rounds")
	}
	for r, ids := range t.Rounds {
		if len(ids) == 0 {
			return fmt.Errorf("fleet: trace round %d names no participants", r)
		}
		for _, id := range ids {
			if id < 0 || (n > 0 && id >= n) {
				return fmt.Errorf("fleet: trace round %d names participant %d outside [0,%d)", r, id, n)
			}
		}
	}
	return nil
}

// Available returns the sorted, deduplicated participant indices (below n)
// the trace marks reachable in round r.
func (t *Trace) Available(r, n int) []int {
	ids := t.Rounds[r%len(t.Rounds)]
	seen := make(map[int]bool, len(ids))
	out := make([]int, 0, len(ids))
	for _, id := range ids {
		if id >= 0 && id < n && !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// ParseTrace decodes a JSON availability trace ({"rounds": [[0,1,2], ...]}),
// rejecting unknown fields and anything but whitespace after the one JSON
// value — a typo'd key or a second document in a trace file must fail
// loudly, matching the flux.LoadScenario strict-decoding contract.
func ParseTrace(data []byte) (*Trace, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var t Trace
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("fleet: parsing trace: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("fleet: parsing trace: data after the JSON value")
	}
	if err := t.Validate(0); err != nil {
		return nil, err
	}
	return &t, nil
}

// LoadTrace reads and decodes a JSON availability trace file.
func LoadTrace(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fleet: reading trace: %w", err)
	}
	return ParseTrace(data)
}

// Spec is the full fleet description the engine consumes: device profiles,
// availability, cohort selection, and straggler semantics. The zero Spec is
// inactive — uniform devices, everyone selected, no deadline — and the
// engine's behavior under it is bit-identical to having no fleet at all.
type Spec struct {
	// Distribution names a built-in profile set (see Distribution); used
	// when Profiles is empty.
	Distribution string `json:"distribution,omitempty"`

	// Profiles are assigned round-robin: participant i gets Profiles[i mod
	// len(Profiles)]. Empty with an empty Distribution means uniform.
	Profiles []Profile `json:"profiles,omitempty"`

	// Trace, when non-nil, replaces probabilistic availability with an
	// explicit per-round schedule.
	Trace *Trace `json:"trace,omitempty"`

	// Selector picks each round's cohort from the available participants.
	// The zero value selects everyone.
	Selector SelectorSpec `json:"selector"`

	// Deadline is the straggler deadline in simulated seconds applied to
	// each cohort member's end-to-end round time; zero means no deadline.
	Deadline float64 `json:"deadline_sec,omitempty"`

	// Drop selects the straggler policy once a deadline is set: true drops
	// participants that miss the deadline from aggregation (the server
	// proceeds at the deadline); false waits for everyone (the deadline is
	// observational only).
	Drop bool `json:"drop,omitempty"`

	// Seed names the fleet's availability/selection randomness; independent
	// of the experiment seed so cohorts are comparable across methods.
	// Empty means "fleet".
	Seed string `json:"seed,omitempty"`
}

// Active reports whether the spec changes engine behavior at all. Drop
// counts as active so that Drop without a Deadline is rejected by Validate
// rather than silently ignored.
func (s Spec) Active() bool {
	return s.Distribution != "" || len(s.Profiles) > 0 || s.Trace != nil ||
		!s.Selector.isZero() || s.Deadline != 0 || s.Drop
}

// Validate reports the first invalid setting, or nil. participants may be
// zero when the fleet size is not yet known (trace bounds are then skipped).
func (s Spec) Validate(participants int) error {
	if !s.Active() {
		return nil
	}
	if s.Distribution != "" {
		if _, err := Distribution(s.Distribution); err != nil {
			return err
		}
		if len(s.Profiles) > 0 {
			return fmt.Errorf("fleet: set either a distribution (%q) or explicit profiles, not both", s.Distribution)
		}
	}
	for _, p := range s.Profiles {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	if err := s.Trace.Validate(participants); err != nil {
		return err
	}
	if err := s.Selector.Validate(); err != nil {
		return err
	}
	if s.Deadline < 0 || !isFinite(s.Deadline) {
		return fmt.Errorf("fleet: deadline %v must be a non-negative number of seconds", s.Deadline)
	}
	if s.Drop && s.Deadline == 0 {
		return fmt.Errorf("fleet: drop policy needs a positive deadline")
	}
	return nil
}

// resolvedProfiles returns the effective profile list: explicit Profiles,
// else the named distribution, else the single uniform profile. The
// distribution slices are shared, read-only — ProfileFor copies before
// normalizing.
func (s Spec) resolvedProfiles() []Profile {
	if len(s.Profiles) > 0 {
		return s.Profiles
	}
	if ps, ok := builtinDistributions[s.Distribution]; ok {
		return ps
	}
	return builtinDistributions["uniform"]
}

// ProfileFor returns participant i's (normalized) profile under round-robin
// assignment.
func (s Spec) ProfileFor(i int) Profile {
	ps := s.resolvedProfiles()
	return ps[i%len(ps)].normalized()
}

// seed returns the fleet randomness namespace.
func (s Spec) seed() string {
	if s.Seed == "" {
		return "fleet"
	}
	return s.Seed
}

// roundRNG derives the deterministic, idempotent randomness of one round:
// a fresh stream from a label, never shared state, so calling Cohort twice
// for the same round yields the same answer and never perturbs model
// training randomness.
func (s Spec) roundRNG(round int) *tensor.RNG {
	return tensor.Named(fmt.Sprintf("fleet/%s/round/%d", s.seed(), round))
}

// Available returns the sorted participant indices reachable in round r out
// of a fleet of n. With a trace, the trace decides; otherwise each
// participant is independently reachable with its profile's availability
// probability. If nobody is reachable, the full fleet is returned — a
// synchronous round cannot run on an empty fleet, and the engine documents
// this fallback rather than deadlocking.
func (s Spec) Available(r, n int) []int {
	if s.Trace != nil && len(s.Trace.Rounds) > 0 {
		if avail := s.Trace.Available(r, n); len(avail) > 0 {
			return avail
		}
		return allIndices(n)
	}
	rng := s.roundRNG(r)
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		// One draw per participant, in index order, whether or not the
		// profile is flaky — so availability streams are stable when
		// profiles change.
		u := rng.Float64()
		if u < s.ProfileFor(i).Availability {
			out = append(out, i)
		}
	}
	if len(out) == 0 {
		return allIndices(n)
	}
	return out
}

// Cohort returns the sorted participant indices executing round r out of a
// fleet of n: the selection policy applied to the round's available set.
// It is deterministic in (Seed, r) and idempotent. A selector returning an
// empty cohort falls back to the full available set.
func (s Spec) Cohort(r, n int) []int {
	avail := s.Available(r, n)
	sel, err := s.Selector.selector()
	if err != nil {
		// Validate rejects unknown policies before an engine run; a
		// hand-built spec that skipped validation degrades to everyone.
		return avail
	}
	cohort := sel.Select(r, avail, s.speedFor, s.roundRNG(r).Split("select"))
	if len(cohort) == 0 {
		return avail
	}
	sorted := append([]int(nil), cohort...)
	sort.Ints(sorted)
	return sorted
}

func allIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
