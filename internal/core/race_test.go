//go:build race

package core

// raceEnabled reports that the race detector is on: it instruments every
// allocation-free path with shadow-memory bookkeeping that allocates, so the
// allocation test skips.
const raceEnabled = true
