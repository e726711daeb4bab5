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

// Score scores one test sample with the profile's task metric: the ROUGE-L
// of the greedy continuation for generation tasks, 1 or 0 for whether the
// highest-scoring option is the answer for multiple-choice ones. All model
// state comes from ws, which the caller owns for the duration of the call.
// Samples are independent — the decode state is reset on every call — so a
// sweep may score them on any workspaces in any order.
func Score(m *moe.Model, ws *moe.Workspace, p data.Profile, s *data.Sample) float64 {
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

// Mean is the raw evaluation score in [0,1] of a sweep's per-sample scores:
// their sum in sample order over the count, or 0 for an empty sweep. The
// order is part of the result — it fixes the floating-point rounding.
func Mean(scores []float64) float64 {
	if len(scores) == 0 {
		return 0
	}
	var sum float64
	for _, v := range scores {
		sum += v
	}
	return sum / float64(len(scores))
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
