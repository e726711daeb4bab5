package fed

import (
	"fmt"
	"maps"
	"strings"
	"testing"

	"repro/internal/simtime"
)

// ledgerEnv is a hand-built environment whose participant phase runs on one
// worker, in slot order on the calling goroutine.
func ledgerEnv() *Env {
	cfg := DefaultConfig()
	cfg.Workers = 1
	return &Env{Cfg: cfg}
}

// runSlots is env.RunSlots over p for cohort, for a phase that must not fail.
func runSlots(t *testing.T, env *Env, p Participant, cohort ...int) []SlotResult {
	t.Helper()
	res, err := env.RunSlots(p, cohort)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// panicOf runs f and returns what it panicked with, formatted, or "" if it
// returned.
func panicOf(f func()) (msg string) {
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprint(p)
		}
	}()
	f()
	return ""
}

// TestLedgerReportsBilledPhasesOnly: a slot's Phases holds exactly the
// phases it billed, a zero bill included; a phase marked but never billed
// is absent, and a slot that bills nothing reports no map at all.
func TestLedgerReportsBilledPhasesOnly(t *testing.T) {
	res := runSlots(t, ledgerEnv(), func(s *Scratch, _, i int) SlotResult {
		if i == 0 {
			s.Mark(simtime.PhaseProfiling)
			s.Bill(0)
			s.Mark(simtime.PhaseMerging)
			s.Mark(simtime.PhaseFineTuning)
			s.Bill(2)
		}
		return SlotResult{Update: Update{Participant: i}}
	}, 0, 1)
	want := map[simtime.Phase]float64{simtime.PhaseProfiling: 0, simtime.PhaseFineTuning: 2}
	if !maps.Equal(res[0].Phases, want) {
		t.Fatalf("slot 0 phases = %v, want %v", res[0].Phases, want)
	}
	if res[1].Phases != nil {
		t.Fatalf("slot 1 billed nothing but reports %v", res[1].Phases)
	}
}

// TestLedgerBillsAddInCallOrder: bills to one phase add up in the order
// they were made, also across a Mark of another phase in between. The
// values make float addition order observable: (2⁵³ + 1) − 2⁵³ is 0, while
// any other order of the three gives 1.
func TestLedgerBillsAddInCallOrder(t *testing.T) {
	const big = 1 << 53
	res := runSlots(t, ledgerEnv(), func(s *Scratch, _, i int) SlotResult {
		s.Mark(simtime.PhaseAssignment)
		s.Bill(big)
		s.Mark(simtime.PhaseFineTuning)
		s.Bill(7)
		s.Mark(simtime.PhaseAssignment)
		s.Bill(1)
		s.Bill(-big)
		return SlotResult{Update: Update{Participant: i}}
	}, 0)
	want := map[simtime.Phase]float64{simtime.PhaseAssignment: 0, simtime.PhaseFineTuning: 7}
	if !maps.Equal(res[0].Phases, want) {
		t.Fatalf("phases = %v, want %v", res[0].Phases, want)
	}
}

// TestLedgerMisusePanics: a Bill before any Mark, and a participant that
// returns its own Phases, are programming errors the slot runner panics on,
// the latter with a message that points to Bill.
func TestLedgerMisusePanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Participant
		want string
	}{
		{"bill before mark", func(s *Scratch, _, i int) SlotResult {
			s.Bill(1)
			return SlotResult{Update: Update{Participant: i}}
		}, "Bill before Scratch.Mark"},
		{"own phases", func(_ *Scratch, _, i int) SlotResult {
			return SlotResult{Update: Update{Participant: i}, Phases: map[simtime.Phase]float64{simtime.PhaseComm: 1}}
		}, "Scratch.Bill"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			msg := panicOf(func() { _, _ = ledgerEnv().RunSlots(tc.p, []int{0}) })
			if !strings.Contains(msg, tc.want) {
				t.Fatalf("panic %q, want one naming %q", msg, tc.want)
			}
		})
	}
}

// TestLedgerIsPerSlot: on a one-worker pool every slot runs on the same
// Scratch, and neither a slot's bills nor its marked phase reach the next
// slot: slot 1's bill lands in its own phase only, and slot 2's Bill without
// a Mark of its own panics.
func TestLedgerIsPerSlot(t *testing.T) {
	env := ledgerEnv()
	var scratches []*Scratch
	p := func(s *Scratch, slot, i int) SlotResult {
		scratches = append(scratches, s)
		switch slot {
		case 0:
			s.Mark(simtime.PhaseFineTuning)
			s.Bill(5)
		case 1:
			s.Mark(simtime.PhaseComm)
			s.Bill(1)
		default:
			s.Bill(1)
		}
		return SlotResult{Update: Update{Participant: i}}
	}
	res := runSlots(t, env, p, 0, 1)
	if scratches[0] != scratches[1] {
		t.Fatal("a one-worker pool ran the slots on two scratches")
	}
	if want := map[simtime.Phase]float64{simtime.PhaseComm: 1}; !maps.Equal(res[1].Phases, want) {
		t.Fatalf("slot 1 phases = %v, want %v", res[1].Phases, want)
	}
	if msg := panicOf(func() { _, _ = env.RunSlots(p, []int{0, 1, 2}) }); !strings.Contains(msg, "Bill before Scratch.Mark") {
		t.Fatalf("slot 2 billed under an earlier slot's phase (panic %q)", msg)
	}
}
