// Cohort selection and straggler semantics.
//
// The fleet subsystem (internal/fleet) decides WHO runs a round and WHEN the
// server stops waiting; this file is the engine-side glue: Cohort resolves
// the round's participant set for a Rounder to fan out over (ForEachOf), and
// resolveStragglers applies the deadline inside FinishRound's synchronous
// barrier. With an inactive fleet spec both degrade to full participation
// with no deadline, bit-identical to runs predating the subsystem.
package fed

// Cohort returns the sorted participant indices executing round r: the full
// fleet when the configuration has no active fleet spec, otherwise the
// selection policy applied to the round's available participants. It is
// deterministic in (Cfg.Fleet.Seed, r) and idempotent — calling it twice for
// the same round returns the same cohort and consumes no engine randomness.
func (e *Env) Cohort(r int) []int {
	n := e.Cfg.Participants
	if !e.Cfg.Fleet.Active() {
		return identityIndices(n)
	}
	return e.Cfg.Fleet.Cohort(r, n)
}

// identityIndices returns [0, n) — the full-fleet participant list.
func identityIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// resolveStragglers applies the configured deadline to the per-cohort-slot
// end-to-end round seconds and returns which slots the synchronous barrier
// aggregates; nil means all of them. Semantics:
//
//   - No deadline, or a deadline with the wait policy: every participant is
//     kept and the deadline changes nothing (it is observational).
//   - Drop policy: participants whose total exceeds the deadline are
//     dropped. The server never proceeds empty-handed — if everyone would
//     miss the deadline it waits for the single fastest participant.
//
// The reduction is deterministic: the mask depends only on the measured
// totals, never on worker scheduling.
func (e *Env) resolveStragglers(totals []float64) []bool {
	deadline := e.Cfg.Fleet.Deadline
	if deadline <= 0 || !e.Cfg.Fleet.Drop {
		return nil
	}
	keep := make([]bool, len(totals))
	kept, fastest := 0, 0
	for i, t := range totals {
		if t < totals[fastest] {
			fastest = i
		}
		if t <= deadline {
			keep[i] = true
			kept++
		}
	}
	switch kept {
	case len(totals):
		return nil
	case 0:
		// A synchronous round cannot aggregate nothing: wait (past the
		// deadline) for the single fastest update.
		keep[fastest] = true
	}
	return keep
}
