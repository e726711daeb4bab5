package flux

import (
	"repro/internal/methods"
)

// MethodInfo describes one registered federated fine-tuning method. Every
// registered method runs on both built-in transports.
type MethodInfo struct {
	Name        string
	Description string
}

// Methods returns the registered methods in registration order; the
// built-ins are "flux", "fmd", "fmq", and "fmes", in that order, followed by
// custom methods in the order they were registered.
func Methods() []MethodInfo {
	var out []MethodInfo
	for _, m := range methods.All() {
		out = append(out, MethodInfo{Name: m.Name, Description: m.Description})
	}
	return out
}

// RegisterMethod adds a custom method to the registry under name, making it
// selectable with WithMethod everywhere — the SDK, the experiment harness,
// and the CLIs. The constructor receives the engine configuration (round
// budget, fleet size, local-SGD settings) and returns the Rounder that will
// execute each synchronous round. Registering an empty name, a nil
// constructor, or an already-taken name is an error.
//
// The signature names only public types, so methods can be implemented and
// registered from outside this module; examples/external_method is a
// complete out-of-module method, and package fluxtest is the conformance
// suite a new method should pass, which runs it over both transports and
// requires them to agree bit for bit.
func RegisterMethod(name, description string, ctor func(cfg EngineConfig) Rounder) error {
	return methods.Register(methods.Method{Name: name, Description: description, New: ctor})
}
