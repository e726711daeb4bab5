// Package eval scores MoE models on the synthetic datasets, implementing the
// paper's per-dataset evaluation protocol: ROUGE-L of greedy continuations
// for generation datasets, option accuracy for multiple-choice datasets.
package eval

import (
	"repro/internal/data"
	"repro/internal/metrics"
	"repro/internal/moe"
	"repro/internal/tensor"
)

// Evaluate scores the model on the given test samples using the profile's
// task metric and returns the raw score in [0,1]. All model state for the
// sweep comes from ws, which the caller owns for the duration of the call; a
// nil ws allocates a private one.
func Evaluate(m *moe.Model, ws *moe.Workspace, p data.Profile, test []*data.Sample) float64 {
	if len(test) == 0 {
		return 0
	}
	if ws == nil {
		ws = moe.NewWorkspace()
	}
	var sum float64
	for _, s := range test {
		sum += scoreSample(m, ws, p, s)
	}
	return sum / float64(len(test))
}

func scoreSample(m *moe.Model, ws *moe.Workspace, p data.Profile, s *data.Sample) float64 {
	switch p.Task {
	case data.Generation:
		gen := m.GenerateWS(ws, s.Prompt, len(s.Completion))
		return metrics.RougeL(gen, s.Completion)
	case data.MultipleChoice:
		scores := ws.Scores(len(s.Options))
		m.ScoreOptionsWS(ws, s.Prompt, s.Options, scores)
		if tensor.ArgMax(scores) == s.Answer {
			return 1
		}
		return 0
	default:
		return 0
	}
}

// Subset returns at most n samples of test, chosen deterministically (every
// k-th sample); n <= 0 or n >= len(test) selects all of it. Convergence
// experiments evaluate on it to keep evaluation cost proportional to
// training cost.
func Subset(test []*data.Sample, n int) []*data.Sample {
	if n <= 0 || n >= len(test) {
		return test
	}
	stride := len(test) / n
	sub := make([]*data.Sample, 0, n)
	for i := 0; i < len(test) && len(sub) < n; i += stride {
		sub = append(sub, test[i])
	}
	return sub
}
