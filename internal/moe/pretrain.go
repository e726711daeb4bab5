package moe

import (
	"context"
	"sync"

	"repro/internal/tensor"
)

// PretrainContext trains the model's embedding, head, and experts on
// sequences drawn from sampler and returns the per-step mean loss curve.
// Gates and attention stay at their random initialization: the backward
// pass treats routing and attention probabilities as constants (see the
// package comment), so it computes no gradient for either. The context is
// polled between steps, and on cancellation the partial loss curve is
// returned along with the context's error (the model is mid-training and
// should be discarded).
//
// Pre-training serves two purposes in the reproduction: it gives the model a
// real language-model prior so fine-tuning experiments start from sensible
// weights, and it lets expert specialization emerge so activation patterns
// are non-uniform — the property all of Flux's mechanisms depend on.
//
// Each step's batch runs as a wavefront over workers goroutines (values
// below 1 mean 1, which runs on the calling goroutine), bit-identical at
// every width. The step's sequences are drawn from sampler in batch order
// first; a sampler must not overwrite a sequence it returned. Worker w owns
// one workspace and takes sequences b = w, w+W, …. Sequence b's forward
// pass runs freely, since the weights are fixed within a step; its backward
// pass runs as backwardStages stages, and stage s of sequence b waits for
// stage s of sequence b−1. Each stage writes its own block of the gradient
// accumulator (backwardStage), so every block is owned by one sequence at a
// time and ownership passes in batch order: each block accumulates exactly
// as a serial loop over the batch accumulates it. The step's losses are
// summed in batch order and the SGD update applied after the step joins.
// TestPretrainWidthBitIdentity pins this.
func PretrainContext(ctx context.Context, m *Model, sampler func(*tensor.RNG) []int, steps, batch int, lr float64, g *tensor.RNG, workers int) ([]float64, error) {
	workers = max(1, min(workers, batch))
	grads := NewGrads(m, true)
	stages := m.backwardStages()
	wss := make([]*Workspace, workers)
	// turn[w][s] carries the right to run stage s to worker w's next
	// sequence. At most one token per channel is ever pending: the sender
	// can only get that far once the receiver took the previous one.
	turn := make([][]chan struct{}, workers)
	for w := range wss {
		wss[w] = NewWorkspace()
		turn[w] = make([]chan struct{}, stages)
		for s := range turn[w] {
			turn[w][s] = make(chan struct{}, 1)
		}
	}
	seqs := make([][]int, batch)
	seqLoss := make([]float64, batch)
	run := func(w int) {
		ws, next := wss[w], turn[(w+1)%workers]
		for b := w; b < batch; b += workers {
			seq := seqs[b]
			var n int
			seqLoss[b], n = lossGrad(ws, m.lossLogits(ws, m.embedWS(ws, seq), 0, seq, nil, nil, -1), seq, nil)
			for s := range stages {
				if b > 0 {
					<-turn[w][s]
				}
				// A sequence with no scored position has no gradient but
				// still hands each stage on. Stop 0: the embedding trains,
				// so the chain runs through every layer.
				if n > 0 {
					m.backwardStage(ws, s, 0, seq, grads)
				}
				if b+1 < batch {
					next[s] <- struct{}{}
				}
			}
		}
	}
	losses := make([]float64, 0, steps)
	var wg sync.WaitGroup
	for range steps {
		if err := ctx.Err(); err != nil {
			return losses, err
		}
		for b := range seqs {
			seqs[b] = sampler(g)
		}
		for w := 1; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run(w)
			}()
		}
		run(0)
		wg.Wait()
		var loss float64
		for _, l := range seqLoss {
			loss += l
		}
		m.ApplySGD(grads, lr/float64(batch))
		losses = append(losses, loss/float64(batch))
	}
	return losses, nil
}
