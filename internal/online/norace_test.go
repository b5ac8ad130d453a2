//go:build !race

package online

const raceEnabled = false
