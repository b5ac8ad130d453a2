//go:build race

package checker

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
