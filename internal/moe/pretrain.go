package moe

import (
	"context"

	"repro/internal/tensor"
)

// PretrainContext trains the model's embedding, head, and experts (gates and
// attention stay at their random initialization, as discussed in DESIGN.md)
// on sequences drawn from sampler. It returns the per-step mean loss curve.
// The context is polled between steps, and on cancellation the partial loss
// curve is returned along with the context's error (the model is mid-training
// and should be discarded).
//
// Pre-training serves two purposes in the reproduction: it gives the model a
// real language-model prior so fine-tuning experiments start from sensible
// weights, and it lets expert specialization emerge so activation patterns
// are non-uniform — the property all of Flux's mechanisms depend on.
func PretrainContext(ctx context.Context, m *Model, sampler func(*tensor.RNG) []int, steps, batch int, lr float64, g *tensor.RNG) ([]float64, error) {
	grads := NewGrads(m, true)
	ws := NewWorkspace()
	losses := make([]float64, 0, steps)
	for s := 0; s < steps; s++ {
		if err := ctx.Err(); err != nil {
			return losses, err
		}
		var loss float64
		for b := 0; b < batch; b++ {
			seq := sampler(g)
			loss += m.ForwardBackwardWS(ws, seq, nil, grads, nil, -1)
		}
		m.ApplySGD(grads, lr/float64(batch))
		losses = append(losses, loss/float64(batch))
	}
	return losses, nil
}
