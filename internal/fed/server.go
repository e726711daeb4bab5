// The server core: the one round reduction.
//
// A Rounder owns what happens inside a participant's round, its Participant
// function; the engine owns the rest. Env.RunRound resolves the cohort, runs
// the participant function for every slot over the pool (ForEachOf), and
// ends in finishRound, as does the TCP Server's RunRound with its arrivals as
// the slots. finishRound is the server's edge: every fresh slot passes
// checkSlot before anything else happens, so in-process and wire slots meet
// one rule. It then owns the straggler deadline, FedAvg in the AggSpec's
// discipline (sync, buffered-async or semi-sync; see finishRound), traffic
// and census accounting, the per-participant observability records and the
// round's simulated phase map, and returns the round's report as one
// RoundStats value — env.Global has exactly one writer between pool join and
// round end.
//
// Determinism: every floating-point fold walks slot order, arrival order
// (simulated total seconds, then slot), or a fixed phase order — never map or
// scheduling order. Carried updates are deep-copied out of the worker scratch
// arena (whose buffers are invalidated by the next round's pool run).
package fed

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/moe"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// Aggregation modes accepted by AggSpec.Mode.
const (
	// ModeSync is the synchronous barrier round — the default (an empty Mode
	// means the same).
	ModeSync = "sync"
	// ModeAsync is FedBuff-style buffered-asynchronous aggregation.
	ModeAsync = "async"
	// ModeSemiSync is fixed-clock aggregation with carry-over.
	ModeSemiSync = "semisync"
)

// AggSpec selects the server's aggregation discipline. The zero value (and
// an explicit "sync" mode) is the synchronous barrier round.
type AggSpec struct {
	// Mode is "sync" (or empty), "async", or "semisync".
	Mode string `json:"mode,omitempty"`

	// BufferK is the async buffer size: the server flushes as soon as K
	// updates are buffered. Zero resolves to half the round's cohort
	// (minimum 1). Ignored by semisync, which flushes on the round clock.
	BufferK int `json:"buffer_k,omitempty"`

	// StalenessAlpha is the staleness discount exponent: an update born
	// against global version v and aggregated at version v+s contributes
	// with weight w/(1+s)^α. Zero applies no discount.
	StalenessAlpha float64 `json:"staleness_alpha,omitempty"`
}

// Active reports whether the spec selects an event-driven mode (async or
// semisync) rather than the synchronous barrier.
func (a AggSpec) Active() bool {
	return a.Mode == ModeAsync || a.Mode == ModeSemiSync
}

// Validate reports the first invalid setting, or nil.
func (a AggSpec) Validate() error {
	switch a.Mode {
	case "", ModeSync, ModeAsync, ModeSemiSync:
	default:
		return fmt.Errorf("fed: aggregation mode %q must be one of %q, %q, %q (or empty)",
			a.Mode, ModeSync, ModeAsync, ModeSemiSync)
	}
	if a.BufferK < 0 {
		return fmt.Errorf("fed: aggregation buffer_k %d must be non-negative (0 = half the cohort)", a.BufferK)
	}
	if a.StalenessAlpha < 0 || math.IsNaN(a.StalenessAlpha) || math.IsInf(a.StalenessAlpha, 0) {
		return fmt.Errorf("fed: aggregation staleness_alpha %v must be a non-negative number", a.StalenessAlpha)
	}
	return nil
}

// bufferFor resolves the flush threshold for a cohort of n: BufferK when set,
// otherwise half the cohort, never below one.
func (a AggSpec) bufferFor(n int) int {
	k := a.BufferK
	if k <= 0 {
		k = n / 2
	}
	if k < 1 {
		k = 1
	}
	return k
}

// SlotResult is one cohort slot's finished work: the participant's update,
// its modeled wire traffic, and its per-phase simulated seconds: what a
// Participant function returns. The phase map must cover the participant's
// full end-to-end round time — its sum is tested against the straggler
// deadline and orders arrivals in the event-driven modes.
type SlotResult struct {
	Update Update
	// Bytes is the uplink payload of Update (what the participant uploads).
	Bytes float64
	// DownBytes is the modeled broadcast payload this participant received
	// at the start of the round.
	DownBytes float64
	// Phases is this participant's simulated seconds by phase.
	Phases map[simtime.Phase]float64
}

// pendingUpdate is a buffered update awaiting aggregation, carried across
// rounds. Its parameters are deep copies — worker scratch arenas are rewound
// every round, so a carried update must own its storage.
type pendingUpdate struct {
	update Update
	birth  int // global model version the participant trained against
	bytes  float64
}

// cloneUpdate deep-copies an update out of scratch-arena storage.
func cloneUpdate(u Update) Update {
	c := Update{Participant: u.Participant, Weight: u.Weight, Experts: make(map[ExpertKey][]float64, len(u.Experts))}
	//fluxvet:unordered map-to-map deep copy; per-key writes, element order irrelevant
	for k, p := range u.Experts {
		c.Experts[k] = append([]float64(nil), p...)
	}
	return c
}

// staleScale is the staleness discount 1/(1+s)^α.
func staleScale(staleness int, alpha float64) float64 {
	if staleness <= 0 || alpha == 0 {
		return 1
	}
	return 1 / math.Pow(1+float64(staleness), alpha)
}

// sortedPhaseSum folds a phase map into seconds in sorted-key order, so the
// float total is bit-reproducible run to run. The event-driven modes total
// arrivals this way.
func sortedPhaseSum(phases map[simtime.Phase]float64) float64 {
	keys := make([]string, 0, len(phases))
	for p := range phases {
		keys = append(keys, string(p))
	}
	sort.Strings(keys)
	var sec float64
	for _, k := range keys {
		sec += phases[simtime.Phase(k)]
	}
	return sec
}

// canonicalPhaseSum folds a phase map into seconds in execution order
// (simtime.CanonicalPhases, then method-specific phases sorted) — the order
// the observability layer lays a round out in. The synchronous barrier totals
// slots and its kept window this way; the fold order is part of the
// bit-identity contract, so it must not be swapped for sortedPhaseSum.
func canonicalPhaseSum(phases map[simtime.Phase]float64) float64 {
	canonical := simtime.CanonicalPhases()
	var sec float64
	extra := len(phases)
	for _, p := range canonical {
		if v, ok := phases[p]; ok {
			sec += v
			extra--
		}
	}
	if extra > 0 {
		keys := make([]string, 0, extra)
		//fluxvet:unordered keys are collected then sorted before the float fold
		for p := range phases {
			if !slices.Contains(canonical, p) {
				keys = append(keys, string(p))
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			sec += phases[simtime.Phase(k)]
		}
	}
	return sec
}

// arrivalOrder is the event-driven server's queue: slots ordered by simulated
// completion time (ties by slot), with each slot's total. Totals come from
// sorted-key folds, so the order is deterministic in the seed at every worker
// count.
func arrivalOrder(results []SlotResult) (order []int, totals []float64) {
	totals = make([]float64, len(results))
	order = make([]int, len(results))
	for slot, p := range results {
		totals[slot] = sortedPhaseSum(p.Phases)
		order[slot] = slot
	}
	sort.SliceStable(order, func(a, b int) bool {
		if totals[order[a]] != totals[order[b]] {
			return totals[order[a]] < totals[order[b]]
		}
		return order[a] < order[b]
	})
	return order, totals
}

// serverRound accumulates the effects of one round's aggregations: the single
// barrier FedAvg in sync mode, every buffer flush in the event-driven modes.
type serverRound struct {
	version   int     // global model version, bumped once per flush
	completed int     // updates aggregated this round (carried + fresh)
	stale     int     // of those, aggregated with staleness > 0
	experts   int     // expert aggregations applied, summed over flushes
	serverSec float64 // server-side aggregation seconds, summed over flushes

	// Observability collection, active only when a recorder is attached
	// (track). birth is the global version at round entry — every fresh
	// arrival's birth — so flush can tell fresh updates from carry-overs.
	// With track off nothing below is appended to, keeping disabled-path
	// allocations at zero.
	track   bool
	birth   int
	flushes []obs.Flush
	agg     []aggEntry
}

// aggEntry records one update's aggregation for observability: which
// participant it came from, the staleness it was discounted at, and whether
// it was fresh this round (vs carried from an earlier one).
type aggEntry struct {
	participant int
	staleness   int
	fresh       bool
}

// flush aggregates the buffered updates in buffer order, staleness-discounted
// against the current version, then bumps the version. It is the single
// model-mutation point of the event-driven modes.
//
// Aggregate replaces an expert's parameters with the weighted mean of the
// updates handed to it — correct for a synchronous barrier, where one call
// sees the whole cohort, but a partial buffer must not clobber what earlier
// flushes contributed. So the current global parameters join the mean as an
// anchor pseudo-update weighted by the unrepresented cohort fraction: the
// buffer moves the model with server rate η = |buffer|/cohort, and a buffer
// covering the full cohort degenerates to the synchronous replacement.
// at is the flush trigger's offset from round start in simulated seconds,
// recorded (with the flush's composition) for the observability sinks when a
// recorder is attached.
func (e *Env) flush(buf []pendingUpdate, cohortN int, sr *serverRound, alpha float64, at float64) {
	scaled := make([]Update, 0, len(buf)+1)
	staleBefore := sr.stale
	var bytes, total float64
	for _, p := range buf {
		staleness := sr.version - p.birth
		if staleness > 0 {
			sr.stale++
		}
		if sr.track {
			sr.agg = append(sr.agg, aggEntry{participant: p.update.Participant, staleness: staleness, fresh: p.birth == sr.birth})
		}
		u := p.update
		w := u.Weight
		if w <= 0 {
			w = 1 // Aggregate's convention for unweighted updates
		}
		u.Weight = float64(w * staleScale(staleness, alpha))
		total += u.Weight
		scaled = append(scaled, u)
		bytes += p.bytes
	}
	if len(buf) < cohortN && e.Global != nil {
		anchor := Update{
			Weight:  total * float64(cohortN-len(buf)) / float64(len(buf)),
			Experts: make(map[ExpertKey][]float64),
		}
		for _, u := range scaled {
			//fluxvet:unordered union of buffer expert keys into the anchor map; per-key writes, order irrelevant
			for key := range u.Experts {
				if _, ok := anchor.Experts[key]; !ok {
					anchor.Experts[key] = e.Global.ExpertAt(key.Layer, key.Expert).FlattenTo(nil)
				}
			}
		}
		if len(anchor.Experts) > 0 {
			// Prepend so each expert's float fold starts from the anchor —
			// deterministic in buffer order like everything else here.
			scaled = append([]Update{anchor}, scaled...)
		}
	}
	sr.experts += Aggregate(e.Global, scaled)
	sr.completed += len(buf)
	sr.serverSec += bytes / e.Cfg.ServerBw
	sr.version++
	if sr.track {
		carried := 0
		for _, p := range buf {
			if p.birth != sr.birth {
				carried++
			}
		}
		sr.flushes = append(sr.flushes, obs.Flush{
			At: at, Dur: bytes / e.Cfg.ServerBw, Size: len(buf),
			Carried: carried, Stale: sr.stale - staleBefore, Version: sr.version,
		})
	}
}

// finishRound is the round reduction Env.RunRound and Server.RunRound end
// with: it takes one SlotResult per cohort slot, owns everything the server
// does with them, and returns its report of the round. It panics if results
// does not hold exactly one entry per slot of a non-empty cohort.
//
// First every slot must pass checkSlot with cohort[slot] as the expected
// participant; the first slot that fails returns its error, naming the
// participant and wrapping ErrRejected, before anything touches the
// carry-over buffer or the global model. Then, by Cfg.Agg mode:
//
//   - sync (the default): slots whose end-to-end seconds miss a drop deadline
//     are cut (never all of them — see resolveStragglers); the kept updates
//     aggregate once, in slot order. The round's time is the per-phase maximum
//     over kept slots plus server aggregation seconds on the communication
//     phase; when someone was dropped the server proceeded at the deadline, so
//     any shortfall of the kept window is straggler-wait idle time.
//   - async: arrivals are ordered by simulated completion time and buffered;
//     every K buffered updates are flushed (staleness-discounted FedAvg, then
//     version++). Leftovers carry into the next round's buffer. The round's
//     time is the end-to-end time of the arrival that triggered the last
//     flush, plus server aggregation seconds; if no flush would trigger
//     naturally the buffer is force-flushed at the last arrival, so every
//     round advances the model.
//   - semisync: one flush per round at the fixed round clock
//     (Cfg.Fleet.Deadline): carried updates plus arrivals inside the clock.
//     Late arrivals carry over instead of being dropped. The round lasts the
//     full clock (shortfall is attributed to the straggler-wait phase); when
//     nothing is flushable the server waits past the clock for the single
//     fastest arrival.
//
// The report's traffic and census are folded in slot order:
// downlink over the whole cohort (the broadcast precedes any deadline),
// uplink over every slot not dropped, the census (Selected = cohort,
// Completed = aggregated, Dropped = cut at a sync deadline — the event-driven
// modes never drop), and under those modes the model version, stale-update
// count, and carry-over buffer size (all zero in sync).
func (e *Env) finishRound(cohort []int, results []SlotResult) (RoundStats, error) {
	if len(cohort) == 0 || len(results) != len(cohort) {
		panic(fmt.Sprintf("fed: finishRound needs one SlotResult per slot of a non-empty cohort: got %d results for a cohort of %d",
			len(results), len(cohort)))
	}
	for slot, p := range results {
		if err := checkSlot(e.Global, cohort[slot], p); err != nil {
			return RoundStats{}, fmt.Errorf("fed: update from %d %w: %w", cohort[slot], ErrRejected, err)
		}
	}
	st := e.st()
	st.mu.Lock()
	// Nil when observability is off: one pointer read per round, and no
	// collection work or allocation below.
	rec := st.rec
	sr := serverRound{version: st.version, birth: st.version, track: rec != nil}
	carried := st.pending
	st.pending = nil
	st.mu.Unlock()

	var phases map[simtime.Phase]float64
	var leftovers []pendingUpdate
	var keep []bool // sync only: which slots made the deadline; nil = nobody dropped
	switch e.Cfg.Agg.Mode {
	case ModeAsync:
		phases, leftovers = e.finishAsync(results, carried, &sr)
	case ModeSemiSync:
		phases, leftovers = e.finishSemiSync(results, carried, &sr)
	default:
		phases, keep = e.finishSync(results, &sr)
	}

	// The round's report. Traffic is observed where it happens: every cohort
	// member receives the broadcast, and every member the server did not cut
	// uploads its update — whether or not an event-driven server consumes it
	// before the round closes.
	stats := RoundStats{
		Phases: phases, ExpertsTouched: sr.experts,
		Selected: len(cohort), Completed: sr.completed,
		ModelVersion: sr.version, Stale: sr.stale, Pending: len(leftovers),
	}
	for slot, p := range results {
		stats.DownlinkBytes += p.DownBytes
		if keep != nil && !keep[slot] {
			stats.Dropped++
			continue
		}
		stats.UplinkBytes += p.Bytes
	}

	if rec != nil {
		// Per-participant observations in slot order (the determinism
		// contract's reduction order). Staleness is reported for updates
		// aggregated this round; Pending marks fresh arrivals still buffered
		// at round end (they carry into the next round's first flush).
		freshStale := make(map[int]int, len(results))
		for _, a := range sr.agg {
			if a.fresh {
				freshStale[a.participant] = a.staleness
			}
		}
		pendingSet := make(map[int]bool, len(leftovers))
		for _, p := range leftovers {
			if p.birth == sr.birth {
				pendingSet[p.update.Participant] = true
			}
		}
		for slot, p := range results {
			id := cohort[slot]
			// Over TCP a cohort id is whatever the peer's Hello said, and a
			// deployment's Env has no device table: no name, never an index.
			device := ""
			if id >= 0 && id < len(e.Devices) {
				device = e.Devices[id].Name
			}
			rec.Participant(obs.Participant{
				Index: id, Device: device,
				Phases:      phaseStrings(p.Phases),
				UplinkBytes: p.Bytes, DownlinkBytes: p.DownBytes,
				Staleness: freshStale[id], Pending: pendingSet[id],
				Dropped: keep != nil && !keep[slot],
			})
		}
		for _, f := range sr.flushes {
			rec.Flush(f)
		}
	}

	st.mu.Lock()
	st.version = sr.version
	st.pending = leftovers
	st.mu.Unlock()
	return stats, nil
}

// ErrRejected is wrapped by the error of a round whose slot failed the server
// core's check, so drivers can count rejections.
var ErrRejected = errors.New("rejected")

// maxWireWeight bounds an update's aggregation weight (a sample count).
// Together with the FP32 bound on parameters it keeps FedAvg's Σw·v / Σw
// finite for any number of accepted updates.
const maxWireWeight = 1 << 40

// checkSlot rejects a slot whose update Aggregate could not apply safely, or
// whose traffic or phases would leave the round's totals non-finite: an
// update that claims another participant's id, carries a weight that is
// neither zero (unweighted) nor in [1, maxWireWeight], names an expert the
// global model does not have, or whose parameter slice has the wrong length
// or a value outside the FP32 range the wire is priced at (NaN and ±Inf
// included); or uplink or downlink bytes or a phase's seconds that are
// negative or outside that range. With no global model (an accounting-only
// Env) only expert-less updates pass.
func checkSlot(global *moe.Model, participant int, p SlotResult) error {
	u := p.Update
	if u.Participant != participant {
		return fmt.Errorf("claims participant %d", u.Participant)
	}
	if u.Weight != 0 && !(u.Weight >= 1 && u.Weight <= maxWireWeight) {
		return fmt.Errorf("weight %v", u.Weight)
	}
	if !wireQuantity(p.Bytes) || !wireQuantity(p.DownBytes) {
		return fmt.Errorf("traffic of %v bytes up, %v bytes down", p.Bytes, p.DownBytes)
	}
	//fluxvet:unordered any-match over the values; the error names no phase, so it does not depend on visit order
	for _, v := range p.Phases {
		if !wireQuantity(v) {
			return errors.New("a phase's seconds are negative or outside the FP32 range")
		}
	}
	// Walk the model's experts rather than the update's map, so the first
	// error found does not depend on map order.
	var layers []*moe.Layer
	if global != nil {
		layers = global.Layers
	}
	known := 0
	for l, layer := range layers {
		for orig := range layer.Routing {
			key := ExpertKey{Layer: l, Expert: orig}
			params, ok := u.Experts[key]
			if !ok {
				continue
			}
			known++
			if want := global.ExpertAt(l, orig).Params(); len(params) != want {
				return fmt.Errorf("expert %+v has %d parameters, want %d", key, len(params), want)
			}
			for _, v := range params {
				if !(math.Abs(v) <= math.MaxFloat32) { // also NaN and ±Inf
					return fmt.Errorf("expert %+v has a parameter outside the FP32 range", key)
				}
			}
		}
	}
	if known != len(u.Experts) {
		return fmt.Errorf("names %d experts the model does not have", len(u.Experts)-known)
	}
	return nil
}

// wireQuantity reports whether v is non-negative and inside the FP32 range.
func wireQuantity(v float64) bool { return v >= 0 && v <= math.MaxFloat32 }

// finishSync is the synchronous barrier: cut the slots that miss a drop
// deadline, FedAvg the kept updates in slot order, and build the round's
// phase map. keep is nil when every slot was kept.
func (e *Env) finishSync(results []SlotResult, sr *serverRound) (phases map[simtime.Phase]float64, keep []bool) {
	totals := make([]float64, len(results))
	for slot, p := range results {
		totals[slot] = canonicalPhaseSum(p.Phases)
	}
	keep = e.resolveStragglers(totals)

	updates := make([]Update, 0, len(results))
	phases = make(map[simtime.Phase]float64)
	var bytes float64
	for slot, p := range results {
		if keep != nil && !keep[slot] {
			continue
		}
		updates = append(updates, p.Update)
		bytes += p.Bytes
		//fluxvet:unordered per-phase max fold; max is order-independent
		for ph, v := range p.Phases {
			phases[ph] = math.Max(phases[ph], v)
		}
	}
	sr.experts = Aggregate(e.Global, updates)
	sr.completed = len(updates)
	sr.serverSec = bytes / e.Cfg.ServerBw

	// The participant window is barriered per phase; server aggregation
	// follows it. When the deadline cut someone the server proceeded at the
	// deadline, so the window lasts the full deadline and its shortfall is
	// idle time. The window can also exceed the deadline — per-slot totals
	// decide who is dropped, and the maxima of different phases may come
	// from different kept slots — in which case no idle time is added.
	window := canonicalPhaseSum(phases)
	phases[simtime.PhaseComm] += sr.serverSec
	if len(updates) < len(results) {
		if wait := e.Cfg.Fleet.Deadline - window; wait > 0 {
			// Accumulate: a slot may itself report straggler time.
			phases[simtime.PhaseStraggler] += wait
		}
	}
	return phases, keep
}

// finishAsync walks the arrival order, buffering updates and flushing every
// K. Returns the round's phase map and the deep-copied leftovers.
func (e *Env) finishAsync(results []SlotResult, carried []pendingUpdate, sr *serverRound) (map[simtime.Phase]float64, []pendingUpdate) {
	order, totals := arrivalOrder(results)
	k := e.Cfg.Agg.bufferFor(len(results))
	alpha := e.Cfg.Agg.StalenessAlpha
	// Every arrival trained against the model broadcast at round entry; a
	// flush mid-round makes the still-buffered and later arrivals stale.
	birth := sr.version
	buf := append([]pendingUpdate(nil), carried...)
	trigger := -1
	for _, slot := range order {
		buf = append(buf, pendingUpdate{update: results[slot].Update, birth: birth, bytes: results[slot].Bytes})
		if len(buf) >= k {
			e.flush(buf, len(results), sr, alpha, totals[slot])
			buf = buf[:0]
			trigger = slot
		}
	}
	if trigger < 0 {
		// No buffer filled this round; the server still advances the model
		// once so every round makes progress (and observers always see an
		// aggregation). The last arrival triggers it.
		trigger = order[len(order)-1]
		e.flush(buf, len(results), sr, alpha, totals[trigger])
		buf = buf[:0]
	}
	leftovers := make([]pendingUpdate, 0, len(buf))
	for _, p := range buf {
		// Deep copy: fresh arrivals reference worker scratch arenas, which
		// the next round's pool run rewinds. (Carried entries are never
		// leftovers — they sit at the front of the buffer, so any flush
		// consumes them first.)
		leftovers = append(leftovers, pendingUpdate{update: cloneUpdate(p.update), birth: p.birth, bytes: p.bytes})
	}

	// The round's simulated time: the end-to-end phases of the arrival that
	// triggered the last flush, plus the server's aggregation seconds. Later
	// arrivals overlap the next round — exactly the idle tail async removes.
	phases := make(map[simtime.Phase]float64, len(results[trigger].Phases)+1)
	//fluxvet:unordered map-to-map copy; per-key writes, element order irrelevant
	for p, v := range results[trigger].Phases {
		phases[p] = v
	}
	phases[simtime.PhaseComm] += sr.serverSec
	return phases, leftovers
}

// finishSemiSync flushes once at the fixed round clock: carried updates plus
// on-time arrivals aggregate; late arrivals carry over. Returns the round's
// phase map and the deep-copied leftovers.
func (e *Env) finishSemiSync(results []SlotResult, carried []pendingUpdate, sr *serverRound) (map[simtime.Phase]float64, []pendingUpdate) {
	order, totals := arrivalOrder(results)
	clock := e.Cfg.Fleet.Deadline
	alpha := e.Cfg.Agg.StalenessAlpha
	birth := sr.version
	buf := append([]pendingUpdate(nil), carried...)
	var onTime, late []int
	for _, slot := range order {
		if totals[slot] <= clock {
			onTime = append(onTime, slot)
		} else {
			late = append(late, slot)
		}
	}
	for _, slot := range onTime {
		buf = append(buf, pendingUpdate{update: results[slot].Update, birth: birth, bytes: results[slot].Bytes})
	}

	phases := make(map[simtime.Phase]float64)
	flushAt := clock
	if len(buf) == 0 {
		// Nothing flushable at the clock: the server waits past it for the
		// single fastest arrival (a round cannot aggregate nothing). The
		// round lasts that participant's full time; the rest carry over.
		first := late[0]
		buf = append(buf, pendingUpdate{update: results[first].Update, birth: birth, bytes: results[first].Bytes})
		late = late[1:]
		flushAt = totals[first]
		//fluxvet:unordered map-to-map copy; per-key writes, element order irrelevant
		for p, v := range results[first].Phases {
			phases[p] = v
		}
	} else {
		// The round lasts exactly the clock: the on-time participant window
		// (per-phase maxima, a max-fold so element order is irrelevant) plus
		// the shortfall as server idle time.
		for _, slot := range onTime {
			//fluxvet:unordered per-phase max fold; max is order-independent
			for p, v := range results[slot].Phases {
				if v > phases[p] {
					phases[p] = v
				}
			}
		}
		if wait := clock - sortedPhaseSum(phases); wait > 0 {
			phases[simtime.PhaseStraggler] += wait
		}
	}
	e.flush(buf, len(results), sr, alpha, flushAt)
	phases[simtime.PhaseComm] += sr.serverSec

	leftovers := make([]pendingUpdate, 0, len(late))
	for _, slot := range late {
		leftovers = append(leftovers, pendingUpdate{update: cloneUpdate(results[slot].Update), birth: birth, bytes: results[slot].Bytes})
	}
	return phases, leftovers
}
