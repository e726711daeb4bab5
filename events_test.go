package flux

import (
	"context"
	"fmt"
	"testing"
)

// reusingTransport is a Transport that reuses one Phases map across rounds,
// overwriting it in place each round — the worst legal behavior under the
// RoundEvent.Phases copy contract, which promises handlers an independent
// map per event.
type reusingTransport struct {
	phases map[Phase]float64
}

func (t *reusingTransport) Name() string                              { return "reusing" }
func (t *reusingTransport) Start(context.Context, *Env, string) error { return nil }
func (t *reusingTransport) Close() error                              { return nil }
func (t *reusingTransport) Round(_ context.Context, r int) (RoundStats, error) {
	//fluxvet:unordered clearing the map; deletes commute
	for k := range t.phases {
		delete(t.phases, k)
	}
	t.phases["fine-tuning"] = float64(100 * (r + 1))
	t.phases[Phase(fmt.Sprintf("extra-%d", r+1))] = 1
	return RoundStats{Phases: t.phases, UplinkBytes: 1, DownlinkBytes: 1}, nil
}

// TestRoundEventPhasesAreIsolated pins the copy contract: a handler that
// retains and mutates the Phases map of every event it sees must not be able
// to corrupt the records of later rounds, even when the transport reuses one
// map for all of them.
func TestRoundEventPhasesAreIsolated(t *testing.T) {
	var retained []map[string]float64
	opts := quickOpts("flux/events/phases-isolated",
		WithRounds(3),
		WithTransport(&reusingTransport{phases: make(map[Phase]float64)}),
		WithRoundEvents(func(ev RoundEvent) {
			retained = append(retained, ev.Phases)
			// A hostile handler: scribble over everything it was handed.
			//fluxvet:unordered per-key constant writes; element order irrelevant
			for k := range ev.Phases {
				ev.Phases[k] = -1
			}
		}),
	)
	e, err := New(opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Events) != 4 {
		t.Fatalf("got %d events, want 4 (baseline + 3 rounds)", len(res.Events))
	}
	for _, ev := range res.Events {
		if ev.Round == 0 {
			if len(ev.Phases) != 0 {
				t.Errorf("round 0 has phases %v, want none", ev.Phases)
			}
			continue
		}
		// Were emit sharing the transport's map, every event would end up
		// with the final round's keys; each must instead have kept its own.
		if _, ok := ev.Phases[fmt.Sprintf("extra-%d", ev.Round)]; !ok {
			t.Errorf("round %d lost its own phase key: %v (clobbered by a later round?)", ev.Round, ev.Phases)
		}
		for r := 1; r <= 3; r++ {
			if r != ev.Round {
				if _, ok := ev.Phases[fmt.Sprintf("extra-%d", r)]; ok {
					t.Errorf("round %d carries round %d's phase key: %v", ev.Round, r, ev.Phases)
				}
			}
		}
	}
	// The handler retained every map and scribbled -1 into the keys present
	// at delivery time. Each event's map was its own copy, so the scribbles
	// must be confined: exactly the event's own two keys, both -1.
	for i, m := range retained[1:] {
		round := i + 1
		if len(m) != 2 {
			t.Errorf("retained map for round %d has %d keys, want 2: %v", round, len(m), m)
		}
		if v := m[fmt.Sprintf("extra-%d", round)]; v != -1 {
			t.Errorf("retained map for round %d: scribble lost, extra-%d=%v want -1", round, round, v)
		}
	}
}
