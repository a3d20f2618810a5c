//go:build race

package sirl_test

// raceEnabled reports whether the race detector is on. It makes sync.Pool
// drop pooled items at random, so zero-allocation pins on pooled paths
// cannot hold under it.
const raceEnabled = true
