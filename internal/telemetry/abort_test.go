package telemetry

import "testing"

// TestReleaseChargesAbortedBase models a panic unwinding through a base
// case: End is skipped, so Release must close the base and charge its
// partial busy time, and leave the shard clean for its next goroutine.
func TestReleaseChargesAbortedBase(t *testing.T) {
	r := New()
	s := r.Acquire()
	s.HyperCut(2, 9, 3)
	s.Base(40, false) // aborted: never ended
	r.Release(s)
	st := r.Snapshot()
	if st.Bases != 1 || st.HyperCuts != 1 {
		t.Fatalf("counters lost on release: %+v", st)
	}
	if st.BusyTotal() <= 0 {
		t.Fatal("the aborted base case's busy time was not charged")
	}
	busy := st.BusyTotal()
	s = r.Acquire() // recycled
	s.End()         // nothing open: a no-op
	r.Release(s)
	if got := r.Snapshot().BusyTotal(); got != busy {
		t.Fatalf("a recycled shard charged %v more busy time with no base open", got-busy)
	}
}
