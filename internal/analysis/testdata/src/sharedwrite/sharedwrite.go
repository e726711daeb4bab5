// Fixture for the sharedwrite analyzer: participant bodies handed to
// ForEachOf/ForEachCohort may write captured slice or map elements
// indexed by a callback parameter, but never captured scalars, slices, or
// pointers directly — those are races or order-dependent reductions.
//
// The fan-out functions are stubbed locally with the real signatures; the
// analyzer matches them by name so the check also follows the public flux
// alias and out-of-module callers.
package fed

type Scratch struct{ buf []float64 }

type Env struct{ n int }

func ForEachCohort(env *Env, cohort []int, fn func(s *Scratch, slot, participant int)) error {
	return nil
}

func ForEachOf(env *Env, participants []int, fn func(s *Scratch, slot, participant int)) error {
	return nil
}

type update struct {
	weight float64
}

func disjointSlotWrites(env *Env, cohort []int) []update {
	results := make([]update, len(cohort))
	_ = ForEachOf(env, cohort, func(s *Scratch, slot, participant int) {
		results[slot] = update{weight: float64(participant)} // indexed by a callback parameter: disjoint
	})
	return results
}

func capturedScalarSum(env *Env, cohort []int) float64 {
	var total float64
	_ = ForEachOf(env, cohort, func(s *Scratch, slot, participant int) {
		total += float64(participant) // want `writes captured "total" without indexing by the participant`
	})
	return total
}

func capturedAppend(env *Env) []int {
	var order []int
	_ = ForEachCohort(env, nil, func(s *Scratch, _, i int) {
		order = append(order, i) // want `writes captured "order" without indexing by the participant`
	})
	return order
}

func capturedIncrement(env *Env) int {
	count := 0
	_ = ForEachCohort(env, nil, func(s *Scratch, _, i int) {
		count++ // want `writes captured "count" without indexing by the participant`
	})
	return count
}

func fixedIndexWrite(env *Env, cohort []int) []float64 {
	out := make([]float64, 4)
	_ = ForEachOf(env, cohort, func(s *Scratch, slot, participant int) {
		out[0] = 1 // want `writes captured "out" without indexing by the participant`
	})
	return out
}

func mapKeyedByParticipant(env *Env, scores map[int]float64) {
	_ = ForEachCohort(env, nil, func(s *Scratch, _, i int) {
		scores[i] = float64(i) // map element keyed by the participant: the contract's disjoint form
	})
}

func localsAndScratchAreFine(env *Env) {
	_ = ForEachCohort(env, nil, func(s *Scratch, _, i int) {
		acc := 0.0
		acc += float64(i)
		s.buf = append(s.buf, acc) // scratch is per-worker state handed in by the pool
	})
}

func nestedFieldThroughIndex(env *Env, cohort []int) []update {
	results := make([]update, len(cohort))
	_ = ForEachOf(env, cohort, func(s *Scratch, slot, participant int) {
		results[slot].weight = 2 // field of an element indexed by a parameter
	})
	return results
}

func justifiedReduction(env *Env) int {
	serialOnly := 0
	_ = ForEachCohort(env, nil, func(s *Scratch, _, i int) {
		//fluxvet:allow sharedwrite fixture: pretend this pool is documented to run with workers=1
		serialOnly += i
	})
	return serialOnly
}
