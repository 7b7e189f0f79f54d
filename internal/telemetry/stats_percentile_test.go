package telemetry

import (
	"strings"
	"testing"
)

// TestBaseVolumePercentileZeroGuard pins the zero-sample guard: percentile
// and average queries on an empty Stats return 0 instead of dividing by the
// empty total.
func TestBaseVolumePercentileZeroGuard(t *testing.T) {
	var st Stats
	for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2} {
		if got := st.BaseVolumePercentile(q); got != 0 {
			t.Fatalf("empty stats percentile(%v) = %v, want 0", q, got)
		}
	}
	if got := st.AvgBaseVolume(); got != 0 {
		t.Fatalf("empty stats avg volume = %v, want 0", got)
	}
	// An empty report must also render without a division panic or NaN.
	if rep := st.Report(); strings.Contains(rep, "NaN") {
		t.Fatalf("empty report contains NaN:\n%s", rep)
	}
}

func TestBaseVolumePercentile(t *testing.T) {
	w := NewWalk(true)
	s := w.Acquire()
	// 9 bases of volume 64 (bucket 6) and 1 of volume 1024 (bucket 10).
	for i := 0; i < 9; i++ {
		s.Base(64, true)
		s.End()
	}
	s.Base(1024, true)
	s.End()
	w.Release(s)
	st := w.Stats()

	if p50 := st.BaseVolumePercentile(0.50); p50 != 1.5*64 {
		t.Fatalf("p50 = %v, want %v", p50, 1.5*64)
	}
	if p99 := st.BaseVolumePercentile(0.99); p99 != 1.5*1024 {
		t.Fatalf("p99 = %v, want %v", p99, 1.5*1024)
	}
	if avg := st.AvgBaseVolume(); avg != (9*64+1024)/10.0 {
		t.Fatalf("avg = %v, want %v", avg, (9*64+1024)/10.0)
	}
	rep := st.Report()
	if !strings.Contains(rep, "p50") || !strings.Contains(rep, "p99") {
		t.Fatalf("report missing percentile line:\n%s", rep)
	}
}
