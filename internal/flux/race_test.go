//go:build race

package flux

// raceEnabled reports whether the tests run under the race detector, whose
// runtime makes allocation counts vary from run to run.
const raceEnabled = true
