//go:build !race

package core

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops a share of the items put into it on purpose, so tests
// may require a pooled search space to be reused only when it is off.
const raceEnabled = false
