//go:build race

package compiler

// raceEnabled reports that the race detector is on. Under it sync.Pool
// drops a share of what is put back, so a pooled path is not
// allocation-free and the allocation test skips.
const raceEnabled = true
