//go:build race

package online

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
