//go:build race

package main

// raceSlowdown stretches the smoke windows under the race detector, whose
// instrumentation slows the engine several times over; see race_off_test.go.
const raceSlowdown = 4
