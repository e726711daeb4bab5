// Package methods is the canonical registry of federated fine-tuning
// methods: it maps stable method names ("flux", "fmd", "fmq", "fmes") to
// fed.Rounder constructors. Both the public SDK and the experiment harness
// resolve methods here, so a method registered once is available to every
// driver.
//
// The Constructor signature is, via the root package's public aliases
// (flux.EngineConfig = fed.Config, flux.Rounder = fed.Rounder), exactly the
// signature flux.RegisterMethod accepts — out-of-module registrations land
// here with no adaptation layer.
package methods

import (
	"fmt"
	"sync"

	"repro/internal/baselines"
	"repro/internal/fed"
	fluxcore "repro/internal/flux"
)

// Constructor builds the in-process rounder for a method, sized for the
// given engine configuration.
type Constructor func(cfg fed.Config) fed.Rounder

// Method is one registry entry.
type Method struct {
	Name        string
	Description string
	New         Constructor
}

var (
	mu    sync.RWMutex
	reg   = make(map[string]Method)
	order []string
)

// Register adds a method to the registry. Names must be unique.
func Register(m Method) error {
	if m.Name == "" || m.New == nil {
		return fmt.Errorf("methods: registration needs a name and a constructor")
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := reg[m.Name]; dup {
		return fmt.Errorf("methods: %q already registered", m.Name)
	}
	reg[m.Name] = m
	order = append(order, m.Name)
	return nil
}

// MustRegister is Register, panicking on error; for init-time registration.
func MustRegister(m Method) {
	if err := Register(m); err != nil {
		panic(err)
	}
}

// Get looks a method up by name.
func Get(name string) (Method, bool) {
	mu.RLock()
	defer mu.RUnlock()
	m, ok := reg[name]
	return m, ok
}

// Names returns registered method names in registration order.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	return append([]string(nil), order...)
}

// All returns all registry entries in registration order.
func All() []Method {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]Method, 0, len(order))
	for _, name := range order {
		out = append(out, reg[name])
	}
	return out
}

// New constructs the named method's rounder for the given configuration.
func New(name string, cfg fed.Config) (fed.Rounder, error) {
	m, ok := Get(name)
	if !ok {
		return nil, fmt.Errorf("methods: unknown method %q (known: %v)", name, Names())
	}
	return m.New(cfg), nil
}

func init() {
	MustRegister(Method{
		Name:        "flux",
		Description: "Flux: quantized stale profiling, adaptive expert merging, dynamic role assignment (§4–6)",
		New: func(cfg fed.Config) fed.Rounder {
			return fluxcore.New(fluxcore.DefaultOptions(cfg.MaxRounds), cfg.Participants)
		},
	})
	MustRegister(Method{
		Name:        "fmd",
		Description: "baseline: full-model fine-tuning with dynamic expert offloading",
		New:         func(fed.Config) fed.Rounder { return baselines.FMD{} },
	})
	MustRegister(Method{
		Name:        "fmq",
		Description: "baseline: INT4-quantized full-model fine-tuning",
		New:         func(fed.Config) fed.Rounder { return baselines.NewFMQ() },
	})
	MustRegister(Method{
		Name:        "fmes",
		Description: "baseline: FedMoE-style expert selection, non-selected experts discarded",
		New:         func(fed.Config) fed.Rounder { return baselines.NewFMES() },
	})
}
