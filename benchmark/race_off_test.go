//go:build !race

package main

// raceSlowdown stretches the smoke windows so that every stream still
// collects the samples its tail needs; 1 without the race detector.
const raceSlowdown = 1
