package telemetry

import (
	"testing"
	"time"
)

// TestReleaseChargesAbortedBase models a panic unwinding through a base
// case: End is skipped, so Release must close the base and charge its
// partial busy time, and leave the shard clean for its next goroutine.
func TestReleaseChargesAbortedBase(t *testing.T) {
	w := NewWalk(true)
	s := w.Acquire()
	s.HyperCut(2, 9, 3)
	s.Base(40, false) // aborted: never ended
	w.Release(s)
	busy := s.busyNS
	if busy <= 0 {
		t.Fatal("the aborted base case's busy time was not charged")
	}
	if r := w.Acquire(); r != s { // recycled
		t.Fatal("released shard should be recycled")
	}
	s.End() // nothing open: a no-op
	w.Release(s)
	if s.busyNS != busy {
		t.Fatalf("a recycled shard charged %v ns more busy time with no base open", s.busyNS-busy)
	}
	st := w.Stats()
	if st.Bases != 1 || st.HyperCuts != 1 {
		t.Fatalf("counters lost on release: %+v", st)
	}
	if st.BusyTotal() != time.Duration(busy) {
		t.Fatalf("walk busy %v, want the aborted base case's %v", st.BusyTotal(), time.Duration(busy))
	}
}
