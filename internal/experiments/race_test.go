//go:build race

package experiments

// raceEnabled reports whether the tests run under the race detector, whose
// instrumentation distorts wall-clock ratios.
const raceEnabled = true
