// Package metrics implements the evaluation metrics of the paper: ROUGE-L
// for generation tasks, option accuracy for multiple-choice tasks, relative
// accuracy against dataset targets, and time-to-accuracy tracking.
package metrics

import "sort"

// RougeL computes the ROUGE-L F1 score between a candidate and a reference
// token sequence, based on their longest common subsequence.
func RougeL(candidate, reference []int) float64 {
	if len(candidate) == 0 || len(reference) == 0 {
		return 0
	}
	l := lcs(candidate, reference)
	if l == 0 {
		return 0
	}
	prec := float64(l) / float64(len(candidate))
	rec := float64(l) / float64(len(reference))
	return 2 * prec * rec / (prec + rec)
}

func lcs(a, b []int) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			if a[i-1] == b[j-1] {
				cur[j] = prev[j-1] + 1
			} else if prev[j] >= cur[j-1] {
				cur[j] = prev[j]
			} else {
				cur[j] = cur[j-1]
			}
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// RelativeAccuracy is the paper's headline per-round quantity: the achieved
// score divided by the dataset-specific target, clamped to [0, 1.05] so
// curves remain comparable once the target is passed.
func RelativeAccuracy(score, target float64) float64 {
	if target <= 0 {
		return 0
	}
	r := score / target
	if r > 1.05 {
		r = 1.05
	}
	if r < 0 {
		r = 0
	}
	return r
}

// CurvePoint is one (simulated time, score) observation.
type CurvePoint struct {
	TimeHours float64
	Score     float64
	Round     int
}

// Tracker records a convergence curve and answers time-to-accuracy queries.
type Tracker struct {
	Target string // metric name, informational
	Points []CurvePoint
}

// Record appends an observation. Times must be non-decreasing.
func (t *Tracker) Record(round int, timeHours, score float64) {
	t.Points = append(t.Points, CurvePoint{TimeHours: timeHours, Score: score, Round: round})
}

// TimeToTarget returns the earliest recorded time at which score reached
// target, and whether it was reached at all.
func (t *Tracker) TimeToTarget(target float64) (float64, bool) {
	for _, p := range t.Points {
		if p.Score >= target {
			return p.TimeHours, true
		}
	}
	return 0, false
}

// Best returns the maximum score observed, or 0 for an empty tracker.
func (t *Tracker) Best() float64 {
	var best float64
	for _, p := range t.Points {
		if p.Score > best {
			best = p.Score
		}
	}
	return best
}

// Final returns the last recorded score, or 0 for an empty tracker.
func (t *Tracker) Final() float64 {
	if len(t.Points) == 0 {
		return 0
	}
	return t.Points[len(t.Points)-1].Score
}

// CDF returns the empirical CDF of values as sorted (x, P(X<=x)) pairs.
// Used for Figure 6(b)'s frequency-change CDF.
func CDF(values []float64) (xs, ps []float64) {
	if len(values) == 0 {
		return nil, nil
	}
	xs = append([]float64(nil), values...)
	sort.Float64s(xs)
	ps = make([]float64, len(xs))
	for i := range xs {
		ps[i] = float64(i+1) / float64(len(xs))
	}
	return xs, ps
}
