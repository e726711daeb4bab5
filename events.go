package flux

import "time"

// RoundEvent is one observation of a running experiment, emitted after the
// baseline evaluation (Round 0) and after every completed federated round.
type RoundEvent struct {
	// Round is 0 for the pre-training baseline evaluation, then 1..N.
	Round int
	// Score is the evaluation score of the global model after this round.
	Score float64
	// SimHours is the simulated clock: the sum of every round's Phases so
	// far, the same on both built-in transports.
	SimHours float64
	// Elapsed is wall-clock time since Run started.
	Elapsed time.Duration
	// UplinkBytes is the update payload participants uploaded this round.
	UplinkBytes float64
	// DownlinkBytes is the payload the server broadcast to participants this
	// round, as their participant functions modeled it (over TCP too). Zero
	// on round 0.
	DownlinkBytes float64
	// ExpertsTouched is how many distinct experts aggregation updated.
	ExpertsTouched int
	// Selected is how many participants the cohort selector picked for the
	// round (the full fleet without an active FleetSpec); Completed is how
	// many updates the server aggregated, and Dropped = Selected -
	// Completed. Under a drop deadline Completed counts participants that
	// finished in time — except when the whole cohort misses it, where the
	// server waits past the deadline for the single fastest update
	// (Completed = 1, and the round's phase sum exceeds the deadline).
	// Zero on round 0 and on transports that do not model fleets.
	Selected  int
	Completed int
	Dropped   int
	// ModelVersion is the global model's version after this round: the
	// number of aggregations the server has published so far. Under
	// synchronous aggregation it is zero (the concept is unused); under an
	// active AggregationSpec it advances by one per buffer flush, so async
	// rounds can advance it more than once.
	ModelVersion int
	// Stale counts updates aggregated this round that trained against an
	// older model version than the one they merged into; their contribution
	// was discounted by 1/(1+staleness)^alpha. Always zero under synchronous
	// aggregation.
	Stale int
	// Pending is how many updates sit in the server's carry-over buffer
	// after this round, awaiting aggregation in a later round. Always zero
	// under synchronous aggregation.
	Pending int
	// Phases breaks the round's simulated seconds down by phase
	// (profiling, merging, assignment, fine-tuning, communication, and
	// straggler-wait when a drop deadline leaves the server idle);
	// nil for transports that do not model phase time. The map is the
	// event's own copy: a handler may retain or mutate it freely without
	// corrupting later rounds or the records of other consumers.
	Phases map[string]float64
}

// EventHandler consumes RoundEvents. Handlers run synchronously in the
// round loop; to decouple, forward into a channel you own.
type EventHandler func(RoundEvent)
