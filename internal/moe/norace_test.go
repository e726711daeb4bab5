//go:build !race

package moe

const raceEnabled = false
