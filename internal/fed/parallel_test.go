package fed

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/data"
	"repro/internal/moe"
	"repro/internal/simtime"
)

// parallelTestEnv returns a small materialized environment for pool tests.
func parallelTestEnv(t *testing.T, participants, workers int) *Env {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Participants = participants
	cfg.Workers = workers
	cfg.Batch = 2
	cfg.LocalIters = 1
	cfg.DatasetSize = 10 * participants
	cfg.EvalSubset = 4
	cfg.MaxRounds = 2
	cfg.PretrainSteps = 5
	env, err := NewEnv(moe.SimConfigLLaMATrain(), data.GSM8K(), cfg, "parallel-test")
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	return env
}

func TestForEachParticipantCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		env := parallelTestEnv(t, 7, workers)
		var mu sync.Mutex
		visits := make(map[int]int)
		if err := ForEachOf(env, identityIndices(7), func(s *Scratch, slot, i int) {
			if s == nil {
				t.Error("nil scratch")
			}
			if slot != i {
				t.Errorf("participant %d ran in slot %d of the identity list", i, slot)
			}
			mu.Lock()
			visits[i]++
			mu.Unlock()
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(visits) != 7 {
			t.Fatalf("workers=%d: visited %d participants, want 7", workers, len(visits))
		}
		//fluxvet:unordered per-participant visit counts; order cannot affect the verdict
		for i, n := range visits {
			if n != 1 {
				t.Errorf("workers=%d: participant %d visited %d times", workers, i, n)
			}
		}
	}
}

func TestForEachParticipantDistinctScratchPerWorker(t *testing.T) {
	env := parallelTestEnv(t, 6, 3)
	var mu sync.Mutex
	seen := make(map[*Scratch]bool)
	if err := ForEachOf(env, identityIndices(env.Cfg.Participants), func(s *Scratch, _, i int) {
		mu.Lock()
		seen[s] = true
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) > 3 {
		t.Fatalf("%d distinct scratches handed out by a 3-worker pool", len(seen))
	}
	pool := append([]*Scratch(nil), env.st().scratch...)
	if len(pool) != 3 {
		t.Fatalf("pool holds %d scratches, want 3", len(pool))
	}
	inPool := func(s *Scratch) bool {
		for _, p := range pool {
			if p == s {
				return true
			}
		}
		return false
	}
	//fluxvet:unordered membership checks only; order cannot affect the verdict
	for s := range seen {
		if !inPool(s) {
			t.Error("fan-out handed out a scratch outside the environment's pool")
		}
	}
	// Scratches persist across rounds: a second fan-out reuses the same pool
	// (which worker gets which participant is scheduling-dependent, but every
	// scratch must come from the persistent pool).
	if err := ForEachOf(env, identityIndices(env.Cfg.Participants), func(s *Scratch, _, i int) {
		if !inPool(s) {
			t.Errorf("second round handed out a scratch outside the persistent pool")
		}
	}); err != nil {
		t.Fatal(err)
	}
	if len(env.st().scratch) != 3 {
		t.Errorf("pool grew to %d scratches across rounds", len(env.st().scratch))
	}
}

func TestForEachParticipantCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		env := parallelTestEnv(t, 16, workers)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		env.SetContext(ctx)
		ran := 0
		var mu sync.Mutex
		err := ForEachOf(env, identityIndices(env.Cfg.Participants), func(s *Scratch, _, i int) {
			mu.Lock()
			//fluxvet:allow sharedwrite mutex-held counter of canceled bodies; the test reduces it only after the pool joins
			ran++
			mu.Unlock()
		})
		if err == nil {
			t.Fatalf("workers=%d: pre-canceled context not reported", workers)
		}
		if ran > workers {
			t.Errorf("workers=%d: %d bodies ran after cancellation", workers, ran)
		}
	}
}

func TestForEachParticipantPanicPropagates(t *testing.T) {
	env := parallelTestEnv(t, 4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("participant panic did not propagate to the caller")
		}
	}()
	_ = ForEachOf(env, identityIndices(env.Cfg.Participants), func(s *Scratch, _, i int) {
		if i == 2 {
			panic("participant body failure")
		}
	})
}

func TestEnvWorkersResolution(t *testing.T) {
	env := parallelTestEnv(t, 3, 0)
	if w := env.Workers(); w < 1 || w > 3 {
		t.Errorf("Workers()=%d with Workers=0 and 3 participants; want within [1,3]", w)
	}
	env.Cfg.Workers = 1
	if w := env.Workers(); w != 1 {
		t.Errorf("Workers()=%d, want 1", w)
	}
	env.Cfg.Workers = 64
	if w := env.Workers(); w != 3 {
		t.Errorf("Workers()=%d, want clamp to 3 participants", w)
	}
}

func TestConfigValidateRejectsNegativeWorkers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative Workers accepted")
	}
}

// TestScratchExtractUpdateMatchesPlain pins the scratch-arena extraction to
// the nil-scratch form (fresh slices), including across arena rewinds.
func TestScratchExtractUpdateMatchesPlain(t *testing.T) {
	env := parallelTestEnv(t, 2, 1)
	tuning := IdentityTuning(env.Global.Cfg)
	s := &Scratch{}
	for round := 0; round < 2; round++ {
		s.off = 0 // what ForEachOf does at round start
		var got []Update
		for i := 0; i < 2; i++ {
			got = append(got, s.ExtractUpdate(env.Global, i, 3, tuning))
		}
		for i, u := range got {
			want := ExtractUpdate(env.Global, i, 3, tuning)
			if len(u.Experts) != len(want.Experts) {
				t.Fatalf("round %d p%d: %d experts, want %d", round, i, len(u.Experts), len(want.Experts))
			}
			//fluxvet:unordered per-expert equality checks; order cannot affect the verdict
			for key, params := range want.Experts {
				gp := u.Experts[key]
				if len(gp) != len(params) {
					t.Fatalf("round %d p%d %v: %d params, want %d", round, i, key, len(gp), len(params))
				}
				for j := range params {
					if gp[j] != params[j] {
						t.Fatalf("round %d p%d %v[%d]: %v != %v", round, i, key, j, gp[j], params[j])
					}
				}
			}
		}
	}
}

// TestScratchBuffersReusedAcrossRounds checks that the worker scratch stops
// allocating model/gradient storage once shapes stabilize.
func TestScratchBuffersReusedAcrossRounds(t *testing.T) {
	env := parallelTestEnv(t, 2, 1)
	s := &Scratch{}
	m1 := s.LocalClone(env.Global)
	g1 := s.Grads(m1)
	m2 := s.LocalClone(env.Global)
	g2 := s.Grads(m2)
	if m1 != m2 {
		t.Error("LocalClone allocated a fresh model for an unchanged shape")
	}
	if g1 != g2 {
		t.Error("Grads allocated a fresh accumulator for an unchanged layout")
	}
}

// handBackRounder's participants each hand work back (SlotResult.After):
// the body uploads expert 0 of layer 0 plus one, and the work it hands back
// records, in its participant's own slots, how often it ran, whether its
// body had returned and every body had been handed out by then, and whether
// the global model was still unaggregated. hook, when set, runs in each body
// and in each handed-back work with the participant index.
type handBackRounder struct {
	n         int
	started   atomic.Int64 // bodies started this round
	returned  []bool       // [i] body i has returned
	afterRuns []int        // [i] times i's handed-back work ran
	bad       []string     // [i] what i's handed-back work saw out of order
	global0   float64      // layer 0 expert 0's first parameter before the round
	log       *[]string    // one-worker order log, or nil
	body      func(env *Env, i int)
	after     func(i int)
}

func (h *handBackRounder) Name() string { return "handback" }

func (h *handBackRounder) Round(env *Env, r int, cohort []int) Participant {
	h.started.Store(0)
	h.global0 = env.Global.ExpertAt(0, 0).W1.Data[0]
	tuning := make([][]int, env.Global.Cfg.Layers())
	tuning[0] = []int{0}
	return func(s *Scratch, slot, i int) SlotResult {
		h.started.Add(1)
		if h.body != nil {
			h.body(env, i)
		}
		u := s.ExtractUpdate(env.Global, i, 1, tuning)
		//fluxvet:unordered per-parameter increments of one expert; order cannot change them
		for _, p := range u.Experts {
			for j := range p {
				p[j]++
			}
		}
		if h.log != nil {
			//fluxvet:allow sharedwrite the order log is kept only with one worker, where every body and hand-back runs on the calling goroutine
			*h.log = append(*h.log, fmt.Sprintf("body %d", i))
		}
		h.returned[i] = true
		s.Mark(simtime.PhaseFineTuning)
		s.Bill(1)
		return SlotResult{
			Update: u,
			After: func(*Scratch) {
				h.afterRuns[i]++
				switch {
				case !h.returned[i]:
					h.bad[i] = "ran before its body returned"
				case h.started.Load() != int64(h.n):
					h.bad[i] = "ran while a body was left to hand out"
				case env.Global.ExpertAt(0, 0).W1.Data[0] != h.global0:
					h.bad[i] = "ran after the round's reduction"
				}
				if h.log != nil {
					//fluxvet:allow sharedwrite the order log is kept only with one worker, where every body and hand-back runs on the calling goroutine
					*h.log = append(*h.log, fmt.Sprintf("after %d", i))
				}
				if h.after != nil {
					h.after(i)
				}
			},
		}
	}
}

func newHandBack(n int) *handBackRounder {
	return &handBackRounder{n: n, returned: make([]bool, n), afterRuns: make([]int, n), bad: make([]string, n)}
}

// TestHandedBackWorkRunsOnceBeforeTheReduction pins the hand-back seam at
// pool widths 1, 2 and 8: each participant's handed-back work runs exactly
// once, after its own body has returned and every body has been handed
// out, and before the round's reduction writes the global model; with one
// worker the bodies run, then the handed-back work, both in slot order.
func TestHandedBackWorkRunsOnceBeforeTheReduction(t *testing.T) {
	const n = 6
	for _, workers := range []int{1, 2, 8} {
		env := parallelTestEnv(t, n, workers)
		h := newHandBack(n)
		var log []string
		if workers == 1 {
			h.log = &log
		}
		if _, err := env.RunRound(h, 0); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range n {
			if h.afterRuns[i] != 1 || h.bad[i] != "" {
				t.Errorf("workers=%d: participant %d's handed-back work ran %d times (%s)", workers, i, h.afterRuns[i], h.bad[i])
			}
		}
		if env.Global.ExpertAt(0, 0).W1.Data[0] == h.global0 {
			t.Fatalf("workers=%d: the round did not aggregate; the before-the-reduction check is vacuous", workers)
		}
		if workers == 1 {
			var want []string
			for i := range n {
				want = append(want, fmt.Sprintf("body %d", i))
			}
			for i := range n {
				want = append(want, fmt.Sprintf("after %d", i))
			}
			if !slices.Equal(log, want) {
				t.Errorf("one worker ran %v, want %v", log, want)
			}
		}
	}
}

// TestHandedBackWorkCanceled checks that no handed-back work starts once the
// context is canceled: every body cancels it before returning, so none may.
func TestHandedBackWorkCanceled(t *testing.T) {
	const n = 6
	for _, workers := range []int{1, 4} {
		env := parallelTestEnv(t, n, workers)
		ctx, cancel := context.WithCancel(context.Background())
		env.SetContext(ctx)
		h := newHandBack(n)
		h.body = func(*Env, int) { cancel() }
		if _, err := env.RunRound(h, 0); err == nil {
			t.Fatalf("workers=%d: a round canceled by its bodies reported no error", workers)
		}
		for i := range n {
			if h.afterRuns[i] != 0 {
				t.Errorf("workers=%d: participant %d's handed-back work ran after cancellation", workers, i)
			}
		}
		cancel()
	}
}

// TestHandedBackWorkPanicPropagates checks that a panic in handed-back work
// surfaces on the caller, like a body's, at one worker and at four.
func TestHandedBackWorkPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			env := parallelTestEnv(t, 4, workers)
			h := newHandBack(4)
			h.after = func(i int) {
				if i == 2 {
					panic("handed-back work failure")
				}
			}
			defer func() {
				if recover() == nil {
					t.Errorf("workers=%d: a panic in handed-back work did not reach the caller", workers)
				}
			}()
			_, _ = env.RunRound(h, 0)
		}()
	}
}
