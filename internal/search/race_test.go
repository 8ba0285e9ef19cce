//go:build race

package search

// raceEnabled reports whether the race detector is on.
const raceEnabled = true
