// Deterministic parallel participant execution.
//
// The participant phase of every method in this repository is embarrassingly
// parallel: each participant profiles, merges, and fine-tunes against a
// read-only global model, and only server-side aggregation (FinishRound)
// mutates shared state. ForEachOf exploits that structure — participant
// bodies fan out over a worker pool — while keeping results bit-identical to
// a serial loop. The determinism contract has three legs, the first two the
// Rounder's and the third FinishRound's:
//
//  1. Randomness: rounders split env.RNG once per participant *before*
//     dispatching work (splitting advances the parent stream, so it must
//     happen in participant order on one goroutine). A participant body
//     consumes only its own pre-split stream.
//  2. Disjoint writes: a body writes only per-participant state — its
//     SlotResult, its utility table, its worker's scratch. The global model
//     is read-only until the pool joins.
//  3. Ordered reduction: floating-point accumulation (uplink-byte sums,
//     FedAvg aggregation, phase maxima) happens after the join, iterating
//     slots in cohort order, so accumulation order never depends on
//     scheduling.
//
// Each worker owns a Scratch whose buffers (local model clone, gradient
// accumulator, update-flattening arena) persist across rounds, so steady-state
// rounds stop allocating whole models.
package fed

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"repro/internal/moe"
)

// Scratch is the per-worker reusable memory ForEachOf hands to a participant
// body. Its buffers persist across rounds of the same environment; a body may
// freely overwrite them, but must not retain references past the round's
// reduction — the next round's pool reuses them.
type Scratch struct {
	model *moe.Model
	grads *moe.Grads
	ws    *moe.Workspace
	arena []float64
	off   int
}

// Workspace returns the scratch's persistent forward/backward workspace.
// Participant bodies pass it to the model's *WS methods so steady-state
// training passes stop allocating; single ownership per worker goroutine is
// guaranteed by the pool structure.
func (s *Scratch) Workspace() *moe.Workspace {
	if s.ws == nil {
		s.ws = moe.NewWorkspace()
	}
	return s.ws
}

// LocalClone deep-copies src into the scratch's persistent model buffer and
// returns it. When the buffer's shape matches src (the steady state for
// full-model methods), no parameter storage is allocated.
func (s *Scratch) LocalClone(src *moe.Model) *moe.Model {
	s.model = src.CloneInto(s.model)
	return s.model
}

// Grads returns a zeroed gradient accumulator shaped like m, reusing the
// scratch's persistent buffer when m's expert layout matches the previous
// round's. Expert buffers are allocated by the backward pass, for trainable
// experts only; a frozen expert never gets one.
func (s *Scratch) Grads(m *moe.Model) *moe.Grads {
	s.grads = s.grads.Reset(m)
	return s.grads
}

// takeFloats returns a length-n slice carved from the scratch arena. Slices
// handed out earlier stay valid when the arena grows (they keep the old
// backing array); the arena is rewound at the start of each round.
func (s *Scratch) takeFloats(n int) []float64 {
	if s.off+n > len(s.arena) {
		grow := 2 * (s.off + n)
		if grow < 4096 {
			grow = 4096
		}
		s.arena = make([]float64, grow)
		s.off = 0
	}
	out := s.arena[s.off : s.off+n : s.off+n]
	s.off += n
	return out
}

// ExtractUpdate collects the current parameters of the given tuning experts
// from a participant's local model, flattened into the scratch's reusable
// arena: the returned update is valid until the next ForEachOf on the same
// environment rewinds it — exactly long enough to reach end-of-round
// aggregation. A nil scratch gives every expert a fresh slice the caller owns
// outright.
func (s *Scratch) ExtractUpdate(local *moe.Model, participant int, weight float64, tuning [][]int) Update {
	u := Update{Participant: participant, Weight: weight, Experts: make(map[ExpertKey][]float64)}
	for l, ids := range tuning {
		for _, orig := range ids {
			e := local.ExpertAt(l, orig)
			var buf []float64
			if s != nil {
				buf = s.takeFloats(e.Params())
			}
			u.Experts[ExpertKey{Layer: l, Expert: orig}] = e.FlattenTo(buf[:0])
		}
	}
	return u
}

// workersFor resolves the participant-phase worker count: Cfg.Workers, with
// zero meaning GOMAXPROCS, clamped to n concurrent units of work (the fleet
// size for a full round, the cohort size for a selected one).
func (e *Env) workersFor(n int) int {
	w := e.Cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// workersFor resolves the participant-phase worker count: Cfg.Workers, with
// zero meaning GOMAXPROCS, clamped to the fleet size.
func (e *Env) Workers() int { return e.workersFor(e.Cfg.Participants) }

// ForEachOf executes fn once for every listed participant over the
// environment's worker pool, passing each invocation its worker's Scratch,
// the participant's slot in the list, and the participant index itself.
// Slots let a Rounder fill a cohort-sized []SlotResult that FinishRound
// reduces in cohort order, which — with cohorts sorted ascending — keeps
// floating-point accumulation deterministic at every worker count.
//
// It returns the environment context's error if the round was canceled — the
// caller must then abandon the round (return nil phases without calling
// FinishRound), exactly as a serial loop polling env.Canceled would.
//
// fn must follow the determinism contract documented at the top of this
// file: consume only pre-split randomness, write only per-participant state,
// and leave all cross-participant reduction to FinishRound.
func ForEachOf(env *Env, participants []int, fn func(s *Scratch, slot, participant int)) error {
	n := len(participants)
	workers := env.workersFor(n)
	scratch := env.scratches(workers)
	for _, s := range scratch {
		s.off = 0
	}

	// Worker goroutines run under pprof labels so -cpuprofile samples are
	// attributable: the pool sets {method, phase=participants} and bodies
	// refine the phase via env.MarkPhase. A handful of label allocations per
	// round, well inside the bench alloc budget, and zero behavioral effect.
	labels := pprof.Labels("method", env.methodName(), "phase", "participants")

	if workers == 1 {
		s := scratch[0]
		pprof.Do(env.Context(), labels, func(context.Context) {
			for slot := 0; slot < n; slot++ {
				if env.Canceled() {
					break
				}
				fn(s, slot, participants[slot])
			}
		})
		return env.Context().Err()
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicked any
	for _, s := range scratch {
		wg.Add(1)
		go func(s *Scratch) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicOnce.Do(func() { panicked = p })
				}
			}()
			pprof.Do(env.Context(), labels, func(context.Context) {
				for {
					slot := int(next.Add(1)) - 1
					if slot >= n || env.Canceled() {
						return
					}
					fn(s, slot, participants[slot])
				}
			})
		}(s)
	}
	wg.Wait()
	if panicked != nil {
		// A participant body panicking is a programming error; surface it on
		// the calling goroutine like the serial loop would.
		panic(panicked)
	}
	return env.Context().Err()
}
