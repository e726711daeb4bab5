// Deterministic parallel execution.
//
// Three steps of a round are embarrassingly parallel, and all three fan out
// over one worker pool (fanOut, Cfg.Workers wide) while keeping results
// bit-identical to a serial loop (a fourth, setup's pre-training, is below):
//
//   - The participant phase (Env.RunRound, over ForEachOf): each
//     participant's function profiles, merges, and fine-tunes against a
//     read-only global model, and only the server core (finishRound) mutates
//     shared state.
//   - Evaluation (Env.Evaluate): each test sample is scored on its worker's
//     workspace against the read-only global model.
//   - The quantized profiling model (Env.QuantizedGlobal): each expert the
//     server core aggregated since the last call is copied and round-tripped
//     on its own, and a full build round-trips the embedding, the head and
//     each layer independently, since quantization scales every row on its
//     own.
//
// The participant phase's determinism contract has three legs, the first two
// the Rounder's and the third the engine's:
//
//  1. Randomness: Rounder.Round splits env.RNG once per participant before
//     it returns the participant function (splitting advances the parent
//     stream, so it must happen in participant order on one goroutine). A
//     participant function consumes only its own pre-split stream.
//  2. Disjoint writes: a participant function writes only per-participant
//     state — the SlotResult it returns, its own participant value, its
//     worker's scratch. The global model is read-only until the pool joins.
//     Work a function hands back in SlotResult.After owns less still: its
//     participant's own value, and the Scratch it is run on. It starts only
//     after its function has returned, on whichever worker is free once no
//     function is left to hand out, and writes neither the update, nor the
//     env, nor the global model; the join hands its participant back
//     before the reduction, so the order in which hand-backs run never
//     shows.
//  3. Ordered reduction: floating-point accumulation (uplink-byte sums,
//     FedAvg aggregation, phase maxima) happens in finishRound after the
//     join, iterating slots in cohort order, so accumulation order never
//     depends on scheduling.
//
// Evaluation and quantization draw no randomness, and their legs are the
// other two: evaluation writes each sample's score into that sample's slot
// and sums the slots in sample order after the join; quantization writes
// only its own unit's matrices (an expert, or the embedding, the head or a
// layer), and no value in one unit depends on another. Neither hands work
// back, and neither stops early on a canceled context, so a mean is never
// partial and a model never half-quantized. Only one fan-out runs at a time
// on an Env: they share the worker scratch.
//
// Base-model pre-training (BaseModelContext) runs before any Env exists,
// at the same width (poolWidth of Cfg.Workers, clamped to the batch), and
// keeps the three legs inside each step of moe.PretrainContext: the step's
// sequences are drawn in batch order before its wavefront starts, each
// backward stage writes only its own gradient block, and ownership of a
// block passes from sequence to sequence in batch order, so every block
// accumulates in the serial order; the loss sum and the SGD update follow
// the join. TestPretrainWidthBitIdentity (internal/moe) pins it.
//
// Each worker owns a Scratch whose buffers (local model clone, customized
// local model, merge planner, gradient accumulator, workspace,
// update-flattening arena) persist across rounds, so steady-state rounds
// stop allocating whole models.
package fed

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"repro/internal/flux/merge"
	"repro/internal/moe"
	"repro/internal/simtime"
)

// Scratch is the per-worker reusable memory ForEachOf hands to a participant
// function. Its buffers persist across rounds of the same environment; a
// function may freely overwrite them, but must not retain references past the
// round's reduction — the next round's pool, and the evaluation between
// rounds, reuse them. It also keeps the slot's phase ledger: a participant
// function reports its simulated time only by marking each phase it enters
// (Mark) and billing the seconds it prices there (Bill).
type Scratch struct {
	model   *moe.Model
	local   *moe.Model // Customize's, apart from LocalClone's full-layout model
	planner merge.Planner
	grads   *moe.Grads
	ws      *moe.Workspace
	arena   []float64
	off     int

	// The slot's phase ledger (Mark, Bill), and each canonical phase's
	// pprof label context.
	phase  simtime.Phase
	ledger map[simtime.Phase]float64
	labels map[simtime.Phase]context.Context
}

// newScratch returns an empty scratch whose Mark labels CPU-profile samples
// with the method named method (methodLabel) and the marked phase.
func newScratch(method string) *Scratch {
	canonical := simtime.CanonicalPhases()
	s := &Scratch{labels: make(map[simtime.Phase]context.Context, len(canonical))}
	for _, p := range canonical {
		s.labels[p] = pprof.WithLabels(context.Background(),
			pprof.Labels("method", methodLabel(method), "phase", string(p)))
	}
	return s
}

// Mark starts phase p: Bill charges p until the next Mark, and the calling
// goroutine's CPU-profile samples carry p (if canonical) and the method as
// labels. It takes no lock and does not allocate.
func (s *Scratch) Mark(p simtime.Phase) {
	s.phase = p
	if ctx, ok := s.labels[p]; ok {
		pprof.SetGoroutineLabels(ctx)
	}
}

// Bill charges sec simulated seconds to the phase last marked; bills to one
// phase add up in call order, and a zero bill still reports its phase
// (SlotResult.Phases). Bill before any Mark in the slot panics. Work handed
// back (SlotResult.After) runs after its slot, so it may Mark but not Bill.
func (s *Scratch) Bill(sec float64) {
	if s.phase == "" {
		panic("fed: Scratch.Bill before Scratch.Mark: no phase to bill")
	}
	if s.ledger == nil {
		s.ledger = make(map[simtime.Phase]float64)
	}
	s.ledger[s.phase] += sec
}

// run is the slot runner, the one way a round runs a participant function
// (RunSlots, RunClientContext): it clears the ledger and the marked phase,
// runs p, and installs the ledger as the result's Phases, which only it
// writes.
func (s *Scratch) run(p Participant, slot, i int) SlotResult {
	s.phase, s.ledger = "", nil
	res := p(s, slot, i)
	if res.Phases != nil {
		panic("fed: a participant function returned its own SlotResult.Phases; report simulated time with Scratch.Mark and Scratch.Bill")
	}
	res.Phases, s.ledger = s.ledger, nil
	return res
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

// Customize builds the participant-local model of specs from global
// (moe.CustomizeInto) into the scratch's persistent customized-model buffer
// and returns it. Its layout changes from participant to participant, so it
// is kept apart from LocalClone's full-layout buffer, and each is rebuilt in
// place by its own kind of call.
func (s *Scratch) Customize(global *moe.Model, specs []moe.LayerSpec) (*moe.Model, error) {
	m, err := moe.CustomizeInto(s.local, global, specs)
	if err != nil {
		return nil, err
	}
	s.local = m
	return m, nil
}

// Planner returns the scratch's persistent merge planner, whose buffers
// every merge plan built on this worker reuses; a plan it builds is valid
// until its next one.
func (s *Scratch) Planner() *merge.Planner { return &s.planner }

// Grads returns a zeroed gradient accumulator shaped like m, reusing the
// scratch's persistent buffers whatever m's expert layout (moe.Grads.Reset).
// Expert buffers are handed out by the backward pass, for trainable experts
// only; a frozen expert never gets one.
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

// workersFor is the width of one fan-out over n independent units:
// Cfg.Workers, with zero meaning GOMAXPROCS, clamped to n (the cohort for
// the participant phase, the samples for Evaluate, the quantization units
// for QuantizedGlobal: its dirty experts, or a full build's units).
func (e *Env) workersFor(n int) int { return poolWidth(e.Cfg.Workers, n) }

// poolWidth is a fan-out's width over n units for the Config.Workers value
// workers: zero means GOMAXPROCS, and the width is clamped to [1, n].
func poolWidth(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, n))
}

// Workers is the width of a full round's participant fan-out: Cfg.Workers,
// with zero meaning GOMAXPROCS, clamped to the fleet size. Evaluate and
// QuantizedGlobal fan out over the same pool, clamped to their own unit
// counts instead.
func (e *Env) Workers() int { return e.workersFor(e.Cfg.Participants) }

// ForEachOf executes fn once for every listed participant over the
// environment's worker pool, passing each invocation its worker's Scratch,
// the participant's slot in the list, and the participant index itself.
// Slots let RunRound fill a cohort-sized []SlotResult that finishRound
// reduces in cohort order, which — with cohorts sorted ascending — keeps
// floating-point accumulation deterministic at every worker count.
//
// Once the environment's context is canceled no further participant starts,
// and ForEachOf returns the context's error: the caller must then abandon the
// round without reducing it.
//
// fn must follow the determinism contract documented at the top of this
// file: consume only pre-split randomness, write only per-participant state,
// and leave all cross-participant reduction until the pool joins.
func ForEachOf(env *Env, participants []int, fn func(s *Scratch, slot, participant int)) error {
	return env.forEachSlot(len(participants), func(s *Scratch, slot int) func(*Scratch) {
		if env.Context().Err() == nil {
			fn(s, slot, participants[slot])
		}
		return nil
	})
}

// forEachSlot is the participant phase's fan-out over n slots, for ForEachOf
// and RunRound: it rewinds every worker's update arena, runs fn over the
// pool with the work each call hands back, and returns the context's error.
// fn checks for cancellation itself.
func (e *Env) forEachSlot(n int, fn func(s *Scratch, slot int) func(*Scratch)) error {
	for _, s := range e.scratches(e.workersFor(n)) {
		s.off = 0
	}
	e.fanOut(n, "participants", fn)
	return e.Context().Err()
}

// fanOut runs fn(s, i) once for every i in [0, n) over workersFor(n) workers,
// each with its own Scratch, then runs the work each call handed back, and
// returns when all of it has returned. A call hands work back by returning
// a non-nil func: it starts only after that call has returned, on whichever
// worker is free once no call is left to hand out, with that worker's
// Scratch, unless the context has been canceled by then. With one worker
// the calls run in order on the calling goroutine, then the handed-back
// work, in the same order. Workers run under the pprof labels {method,
// phase}, the phase named by the fan-out, so -cpuprofile samples are
// attributable; a participant function refines the phase with Scratch.Mark
// until its worker leaves the fan-out.
//
// Every unit runs whatever the context says, so a reduction over the results
// is never partial; a body that should give up on cancellation (a
// participant's) checks for it itself. fanOut never rewinds a scratch's
// update arena, and a panic in fn or in the work it hands back is re-raised
// on the calling goroutine.
func (e *Env) fanOut(n int, phase string, fn func(s *Scratch, i int) func(*Scratch)) {
	scratch := e.scratches(e.workersFor(n))
	handed := e.handBack(n)
	labels := e.fanLabels(phase)
	ctx := e.Context()
	// next hands out units; taken counts the values workers have claimed
	// from handed, where every unit leaves exactly one.
	var c struct{ next, taken atomic.Int64 }
	work := func(s *Scratch) {
		pprof.SetGoroutineLabels(labels)
		for i := int(c.next.Add(1)) - 1; i < n; i = int(c.next.Add(1)) - 1 {
			runUnit(s, i, fn, handed)
		}
		for c.taken.Add(1) <= int64(n) {
			if after := <-handed; after != nil && ctx.Err() == nil {
				after(s)
			}
		}
	}
	if len(scratch) == 1 {
		// The calling goroutine leaves with the labels of ctx, as pprof.Do
		// leaves it.
		defer pprof.SetGoroutineLabels(ctx)
		work(scratch[0])
		return
	}

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
			work(s)
		}(s)
	}
	wg.Wait()
	if panicked != nil {
		// A body panicking is a programming error; surface it on the calling
		// goroutine like the serial loop would.
		panic(panicked)
	}
}

// fanLabels returns the pprof label context {method, phase} of the fan-out
// named phase, built on the environment's first such fan-out and reused by
// every later one.
func (e *Env) fanLabels(phase string) context.Context {
	st := e.st()
	st.mu.Lock()
	defer st.mu.Unlock()
	ctx, ok := st.labels[phase]
	if !ok {
		if st.labels == nil {
			st.labels = make(map[string]context.Context)
		}
		ctx = pprof.WithLabels(context.Background(), pprof.Labels("method", methodLabel(st.method), "phase", phase))
		st.labels[phase] = ctx
	}
	return ctx
}

// runUnit runs fn(s, i) and sends what it hands back to handed — nil for
// nothing, and for a call that panicked — so that every unit leaves exactly
// one value there, and no worker waits for a value that never comes.
func runUnit(s *Scratch, i int, fn func(s *Scratch, i int) func(*Scratch), handed chan<- func(*Scratch)) {
	var after func(*Scratch)
	defer func() { handed <- after }()
	after = fn(s, i)
}

// handBack returns the environment's hand-back channel, empty and with room
// for n values, so a unit never blocks on its send. The channel persists
// across fan-outs, which run one at a time on an Env; values a fan-out cut
// short by a panic left behind are dropped here.
func (e *Env) handBack(n int) chan func(*Scratch) {
	st := e.st()
	st.mu.Lock()
	if cap(st.handBack) < n {
		st.handBack = make(chan func(*Scratch), n)
	}
	ch := st.handBack
	st.mu.Unlock()
	for len(ch) > 0 {
		<-ch
	}
	return ch
}
