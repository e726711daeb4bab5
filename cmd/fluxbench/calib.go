package main

import (
	"math"
	"sort"
	"sync"
	"time"

	flux "repro"
)

// The calibration kernel is the benchmark's own fixed piece of work: a
// float64 multiply-accumulate sweep over a 1 MiB working set, about one
// model's expert weights. It calls nothing in this repository, so no change
// to the system under test can make it faster or slower; what moves it is the
// machine. On a shared box the speed of a core drifts by tens of percent for
// seconds to minutes at a time — more than any regression bound — so every
// timed interval is reported at reference speed: its wall time scaled by how
// the kernel, timed right beside it, compares with calibRefMS (toReference).
// ROADMAP item 1(c) asks for exactly this: "compared as a ratio to a same-run
// calibration kernel rather than to absolute nanoseconds". Raw wall times are
// kept in the -out report.
const (
	calibRows = 64
	calibCols = 128
	calibMats = 16 // 16 × 64 × 128 × 8 B = 1 MiB
	// calibRuns kernel runs make one sample.
	calibRuns = 15
	// calibRefMS is one kernel run on the reference box (2-vCPU Xeon
	// 2.1 GHz, go1.24) with nothing else contending. A reported time is what
	// the interval would have taken at that speed.
	calibRefMS = 0.0625
	// calibExponent is how much of the kernel's slowdown a timed interval is
	// taken to share. A round is not all arithmetic (it also waits on
	// sockets, the scheduler and the collector), and a one-millisecond sample
	// is a noisy reading of the speed over a whole round, which calls for
	// shrinking the correction. 0.75 gave the smallest spread across seeds on
	// the reference box, over all four workloads, in quiet and in busy hours.
	calibExponent = 0.75
)

// toReference is the factor that reads a wall time at reference speed, given
// the calibration sample (ms) taken beside it.
func toReference(sample float64) float64 {
	return math.Pow(calibRefMS/sample, calibExponent)
}

type calibKernel struct {
	in   [calibRows]float64
	out  [calibCols]float64
	mats [calibMats][calibRows * calibCols]float64
	sink float64 // keeps the kernel's result alive
}

func newCalibKernel() *calibKernel {
	c := &calibKernel{}
	x := 0.5
	for m := range c.mats {
		for i := range c.mats[m] {
			x = 3.9 * x * (1 - x) // logistic map: fixed, aperiodic, in (0,1)
			c.mats[m][i] = x - 0.5
		}
	}
	for i := range c.in {
		c.in[i] = float64(i%7) - 3
	}
	return c
}

func (c *calibKernel) run() {
	for m := range c.mats {
		w := &c.mats[m]
		out := &c.out
		for j := range out {
			out[j] = 0
		}
		for i, a := range c.in {
			row := w[i*calibCols : (i+1)*calibCols]
			for j, b := range row {
				out[j] += a * b
			}
		}
		c.sink += out[m]
	}
}

// medianRun runs the kernel calibRuns times and returns the median time of
// one run in milliseconds. The first runs refill the caches the measured work
// emptied; the median reads the warm ones.
func (k *calibKernel) medianRun() float64 {
	var runs [calibRuns]float64
	for i := range runs {
		t0 := time.Now()
		k.run()
		runs[i] = float64(time.Since(t0)) / 1e6
	}
	sort.Float64s(runs[:])
	return runs[calibRuns/2]
}

// calibrator runs one kernel per worker of the workload under test, all at
// once: two busy cores of a shared box are not twice one busy core, and the
// sample must see the machine the way the workload does.
type calibrator struct {
	kernels []*calibKernel
}

func newCalibrator(workers int) *calibrator {
	c := &calibrator{}
	for i := 0; i < workers; i++ {
		c.kernels = append(c.kernels, newCalibKernel())
	}
	return c
}

// sample returns one kernel run's time in milliseconds with every worker's
// kernel running at once: the mean over workers of each worker's median run.
func (c *calibrator) sample() float64 {
	medians := make([]float64, len(c.kernels))
	var wg sync.WaitGroup
	for i, k := range c.kernels[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			medians[i+1] = k.medianRun()
		}()
	}
	medians[0] = c.kernels[0].medianRun()
	wg.Wait()
	return mean(medians)
}

// timing is one interval timed between two calibration samples.
type timing struct {
	RawS   float64 `json:"raw_s"`
	Before float64 `json:"calib_before_ms"`
	After  float64 `json:"calib_after_ms"`
}

// seconds is the interval's length at reference speed.
func (t timing) seconds() float64 { return t.RawS * toReference((t.Before+t.After)/2) }

// around times fn, with one calibration sample taken before and one after.
func (c *calibrator) around(fn func() error) (timing, error) {
	t := timing{Before: c.sample()}
	t0 := time.Now()
	err := fn()
	t.RawS = time.Since(t0).Seconds()
	t.After = c.sample()
	return t, err
}

// speedMeter is a run's RoundEvent handler: it keeps every event and samples
// the calibration kernel beside it, so every round of the run has a sample
// taken just before it started and one just after it was evaluated.
type speedMeter struct {
	cal     *calibrator
	events  []flux.RoundEvent
	samples []float64 // one per event, in milliseconds
	spent   []float64 // wall milliseconds the sampling itself took, per event
}

func newSpeedMeter(cal *calibrator) *speedMeter { return &speedMeter{cal: cal} }

func (m *speedMeter) onEvent(ev flux.RoundEvent) {
	m.events = append(m.events, ev)
	t0 := time.Now()
	m.samples = append(m.samples, m.cal.sample())
	m.spent = append(m.spent, float64(time.Since(t0))/1e6)
}

// factor is what a wall time inside round r (1-based, as RoundEvent.Round)
// is multiplied by to read at reference speed; 1 when the round has no
// samples on both sides.
func (m *speedMeter) factor(r int) float64 {
	if r < 1 || r >= len(m.samples) {
		return 1
	}
	return toReference((m.samples[r-1] + m.samples[r]) / 2)
}

// periodMS returns round r's wall time, raw and at reference speed, in
// milliseconds: the distance between consecutive RoundEvent.Elapsed stamps,
// less the calibration sampled in between.
func (m *speedMeter) periodMS(r int) (raw, ref float64) {
	raw = float64(m.events[r].Elapsed-m.events[r-1].Elapsed)/1e6 - m.spent[r-1]
	return raw, raw * m.factor(r)
}

// timedPeriodsMS is periodMS for every timed round (warm-up excluded).
func (m *speedMeter) timedPeriodsMS() (raw, ref []float64) {
	for r := warmupRounds + 1; r < len(m.events); r++ {
		a, b := m.periodMS(r)
		raw, ref = append(raw, a), append(ref, b)
	}
	return raw, ref
}
