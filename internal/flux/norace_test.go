//go:build !race

package flux

const raceEnabled = false
