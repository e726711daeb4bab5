package flux_test

import (
	"testing"

	flux "repro"
	"repro/fluxtest"
)

type nopRounder struct{}

func (nopRounder) Name() string                                 { return "nop" }
func (nopRounder) Round(*flux.Env, int, []int) flux.Participant { return nil }
func nopCtor(flux.EngineConfig) flux.Rounder                    { return nopRounder{} }

func TestRegisterMethodErrors(t *testing.T) {
	if err := flux.RegisterMethod("registry-test-ok", "registration fixture", nopCtor); err != nil {
		t.Fatalf("fresh registration failed: %v", err)
	}
	before := len(flux.Methods())

	cases := []struct {
		name   string
		method string
		ctor   func(flux.EngineConfig) flux.Rounder
	}{
		{"EmptyName", "", nopCtor},
		{"NilConstructor", "registry-test-nil", nil},
		{"DuplicateBuiltin", "fmd", nopCtor},
		{"DuplicateCustom", "registry-test-ok", nopCtor},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := flux.RegisterMethod(tc.method, "should not register", tc.ctor); err == nil {
				t.Fatalf("RegisterMethod(%q) succeeded; want error", tc.method)
			}
		})
	}

	// Failed registrations must not grow the registry or overwrite entries.
	ms := flux.Methods()
	if len(ms) != before {
		t.Fatalf("registry grew from %d to %d entries on failed registrations", before, len(ms))
	}
	for _, m := range ms {
		if m.Name == "fmd" && m.Description == "should not register" {
			t.Fatalf("duplicate registration overwrote the fmd built-in: %+v", m)
		}
	}
}

func TestMethodsOrdering(t *testing.T) {
	builtins := []string{"flux", "fmd", "fmq", "fmes"}
	ms := flux.Methods()
	if len(ms) < len(builtins) {
		t.Fatalf("Methods() returned %d entries, want at least %d", len(ms), len(builtins))
	}
	for i, name := range builtins {
		if ms[i].Name != name {
			t.Fatalf("Methods()[%d] = %q, want built-in %q (registration order)", i, ms[i].Name, name)
		}
	}
	for _, m := range ms[:len(builtins)] {
		if m.Description == "" {
			t.Errorf("%s: empty description", m.Name)
		}
	}

	// Custom methods append in registration order.
	n := len(flux.Methods())
	for _, name := range []string{"registry-order-a", "registry-order-b"} {
		if err := flux.RegisterMethod(name, "ordering fixture", nopCtor); err != nil {
			t.Fatal(err)
		}
	}
	ms = flux.Methods()
	if ms[n].Name != "registry-order-a" || ms[n+1].Name != "registry-order-b" {
		t.Fatalf("custom methods out of registration order: got %q, %q", ms[n].Name, ms[n+1].Name)
	}
}

// pubFedAvg is the in-module twin of examples/external_method: a plain
// FedAvg written purely against the public extension surface (a Round that
// returns a Participant function filling one SlotResult). Running it through
// fluxtest here keeps the public-API path covered by the root test suite (the
// external module exercises the out-of-module path).
type pubFedAvg struct{}

func (pubFedAvg) Name() string { return "pub-fedavg" }

func (pubFedAvg) Round(env *flux.Env, round int, _ []int) flux.Participant {
	tuning := flux.TuneAllExperts(env.Global)
	return func(ws *flux.Scratch, _, i int) flux.SlotResult {
		ws.Mark(flux.PhaseFineTuning)
		local := ws.LocalClone(env.Global)
		grads := ws.Grads(local)
		batch := env.Batch(i, round)
		tokens := 0
		for it := 0; it < env.Cfg.LocalIters; it++ {
			for _, s := range batch {
				seq, mask := s.FullSequence()
				local.ForwardBackwardWS(ws.Workspace(), seq, mask, grads, nil, -1)
				tokens += len(seq)
			}
			local.ApplySGD(grads, env.Cfg.LR/float64(len(batch)))
		}
		ws.Bill(env.Devices[i].Seconds(flux.TrainFlops(env.Global, tokens, 1.0)))
		u := ws.ExtractUpdate(local, i, float64(len(env.Shards[i])), tuning)
		return flux.SlotResult{Update: u, Bytes: flux.UpdateBytes(u), DownBytes: flux.ModelBytes(env.Global)}
	}
}

func TestPublicAPIMethodConformsOnBothTransports(t *testing.T) {
	fluxtest.TestRounder(t, fluxtest.RounderSpec{
		Name: "pub-fedavg",
		New:  func(flux.EngineConfig) flux.Rounder { return pubFedAvg{} },
	})
}
