package flight

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestPackPairRoundTrip(t *testing.T) {
	cases := [][2]int{{0, 0}, {1, 2}, {-3, 7}, {1 << 20, -(1 << 20)}, {-1, -1}}
	for _, c := range cases {
		a, b := UnpackPair(PackPair(c[0], c[1]))
		if a != c[0] || b != c[1] {
			t.Errorf("PackPair(%d,%d) round-tripped to (%d,%d)", c[0], c[1], a, b)
		}
	}
}

func TestKindJSONRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		data, err := json.Marshal(k)
		if err != nil {
			t.Fatalf("marshal %v: %v", k, err)
		}
		var back Kind
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if back != k {
			t.Errorf("kind %v round-tripped to %v", k, back)
		}
	}
	var k Kind
	if err := json.Unmarshal([]byte(`"no-such-kind"`), &k); err == nil {
		t.Error("unknown kind name unmarshalled without error")
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Record(EvBase, 1, 2, 3)
	r.Freeze()
	r.Unfreeze()
	if got := r.Snapshot(); got != nil {
		t.Errorf("nil Snapshot = %v, want nil", got)
	}
	if got := r.TotalRecorded(); got != 0 {
		t.Errorf("nil TotalRecorded = %d, want 0", got)
	}
	if got := r.Lanes(); got != 0 {
		t.Errorf("nil Lanes = %d, want 0", got)
	}
}

func TestRingWraparound(t *testing.T) {
	const ring = 16
	r := New(ring)
	// All appends from this goroutine land on one lane, so overfilling the
	// ring 4x must retain exactly the newest `ring` events of that lane.
	const total = 4 * ring
	for i := 0; i < total; i++ {
		r.Record(EvBase, int64(i), 0, 0)
	}
	evs := r.Snapshot()
	if len(evs) != ring {
		t.Fatalf("after %d appends into a %d-slot ring: %d events, want %d", total, ring, len(evs), ring)
	}
	for i, ev := range evs {
		want := int64(total - ring + i)
		if ev.A0 != want {
			t.Errorf("event %d: A0 = %d, want %d (oldest survivors must be the newest appends)", i, ev.A0, want)
		}
		if ev.Seq != uint64(want) {
			t.Errorf("event %d: Seq = %d, want %d", i, ev.Seq, want)
		}
	}
	if got := r.TotalRecorded(); got != total {
		t.Errorf("TotalRecorded = %d, want %d", got, total)
	}
}

func TestRingSizeRoundsToPowerOfTwo(t *testing.T) {
	r := New(100)
	if n := len(r.shards[0].ring); n != 128 {
		t.Errorf("ring size for New(100) = %d, want 128", n)
	}
	r = New(0)
	if n := len(r.shards[0].ring); n != DefaultRing {
		t.Errorf("ring size for New(0) = %d, want %d", n, DefaultRing)
	}
}

func TestFreezeStopsRecording(t *testing.T) {
	r := New(64)
	r.Record(EvRunStart, 0, 0, 8)
	r.Freeze()
	r.Record(EvBase, 1, 2, 3)
	if evs := r.Snapshot(); len(evs) != 1 {
		t.Fatalf("frozen recorder accepted an append: %d events, want 1", len(evs))
	}
	r.Unfreeze()
	r.Record(EvBase, 1, 2, 3)
	if evs := r.Snapshot(); len(evs) != 2 {
		t.Fatalf("unfrozen recorder dropped an append: %d events, want 2", len(evs))
	}
}

// TestConcurrentRecordWhileDump hammers Record from many goroutines while
// snapshotting continuously. Under -race this exercises the per-slot seqlock:
// every event a snapshot returns must be internally consistent (A0 == A1, a
// writer invariant below), proving torn slots are dropped rather than
// surfaced.
func TestConcurrentRecordWhileDump(t *testing.T) {
	r := New(32) // small ring so writers lap readers constantly
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := int64(w)<<32 | int64(i&0xffff)
				r.Record(EvBase, v, v, v)
			}
		}(w)
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	dumps := 0
	for time.Now().Before(deadline) {
		for _, ev := range r.Snapshot() {
			if ev.A0 != ev.A1 || ev.A1 != ev.A2 {
				t.Errorf("torn event surfaced: A0=%d A1=%d A2=%d", ev.A0, ev.A1, ev.A2)
			}
		}
		dumps++
	}
	close(stop)
	wg.Wait()
	if dumps == 0 {
		t.Fatal("no snapshots completed")
	}
	if r.TotalRecorded() == 0 {
		t.Fatal("no events recorded")
	}
}

// TestRecordSkipsHeldSlot: a writer that finds its slot held by another
// writer — one whose cursor maps to the same slot and is still mid-store —
// drops its event and stores nothing, so no published slot mixes two
// events' fields.
func TestRecordSkipsHeldSlot(t *testing.T) {
	r := New(4)
	for i := range r.shards {
		for j := range r.shards[i].ring {
			r.shards[i].ring[j].seq.Store(held)
		}
	}
	r.Record(EvBase, 1, 2, 3)
	for i := range r.shards {
		for j := range r.shards[i].ring {
			s := &r.shards[i].ring[j]
			if s.seq.Load() != held || s.ts.Load() != 0 || s.a0.Load() != 0 || s.a1.Load() != 0 || s.a2.Load() != 0 || s.kind.Load() != 0 {
				t.Fatalf("Record stored into held slot %d of lane %d: seq %#x a0 %d a1 %d a2 %d kind %d",
					j, i, s.seq.Load(), s.a0.Load(), s.a1.Load(), s.a2.Load(), s.kind.Load())
			}
		}
	}
	if evs := r.Snapshot(); len(evs) != 0 {
		t.Fatalf("Snapshot surfaced %d events from held slots", len(evs))
	}
}

func TestSnapshotOrdering(t *testing.T) {
	r := New(256)
	for i := 0; i < 500; i++ {
		r.Record(EvCut, CutTime, int64(i), 0)
	}
	evs := r.Snapshot()
	for i := 1; i < len(evs); i++ {
		a, b := evs[i-1], evs[i]
		if a.TS > b.TS {
			t.Fatalf("events out of time order at %d: %d > %d", i, a.TS, b.TS)
		}
		if a.TS == b.TS && a.Worker == b.Worker && a.Seq >= b.Seq {
			t.Fatalf("lane order violated at %d: seq %d then %d", i, a.Seq, b.Seq)
		}
	}
}

func TestWindow(t *testing.T) {
	r := New(64)
	r.Record(EvRunStart, 0, 0, 4)
	evs := r.Snapshot()
	if len(evs) != 1 {
		t.Fatalf("got %d events", len(evs))
	}
	if w := r.Window(time.Second); len(w) != 1 {
		t.Errorf("Window(1s) = %d events, want 1", len(w))
	}
	if w := r.Window(0); len(w) != 1 {
		t.Errorf("Window(0) = %d events, want all (1)", len(w))
	}
}

func TestDescribeCoversKinds(t *testing.T) {
	evs := []Event{
		{Kind: EvRunStart, A0: 1, A1: 2, A2: 10},
		{Kind: EvRunEnd, A0: 0},
		{Kind: EvRunEnd, A0: 1},
		{Kind: EvRunEnd, A0: 2},
		{Kind: EvCut, A0: CutHyper, A1: 2, A2: 9},
		{Kind: EvCut, A0: CutSpace, A1: 1},
		{Kind: EvCut, A0: CutCircle, A1: 0},
		{Kind: EvCut, A0: CutTime, A1: 7},
		{Kind: EvBase, A0: PackPair(2, 4), A1: PackPair(0, 32), A2: 64<<1 | 1},
		{Kind: EvPanic, A0: PackPair(2, 4), A1: PackPair(0, 32), A2: PanicBase},
		{Kind: EvPanic, A2: PanicSched},
		{Kind: EvCancel},
		{Kind: EvSup, A0: 2, A1: 3, A2: 1},
		{Kind: EvSup, A0: 99},
		{Kind: EvFault, A0: 1, A1: 5},
		{Kind: numKinds}, // unknown falls back to raw args
	}
	for _, ev := range evs {
		if s := ev.Describe(); s == "" {
			t.Errorf("Describe(%+v) empty", ev)
		}
	}
}

func TestSetDefaultRing(t *testing.T) {
	old := Default()
	defer defaultRec.Store(old)
	r := SetDefaultRing(64)
	if Default() != r {
		t.Fatal("SetDefaultRing did not install the new recorder")
	}
	if n := len(r.shards[0].ring); n != 64 {
		t.Errorf("ring size = %d, want 64", n)
	}
}

func BenchmarkRecord(b *testing.B) {
	r := New(DefaultRing)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.Record(EvBase, 1, 2, 3)
		}
	})
}

// TestLifecycleEventSortsAfterStaleCoarseClock: a lane that read the clock
// early and stored it late leaves the shared coarse clock behind the events
// already recorded. A run-end recorded then still reads the clock itself, so
// Snapshot ends with it, and the coarse clock is never moved back.
func TestLifecycleEventSortsAfterStaleCoarseClock(t *testing.T) {
	r := New(64)
	for i := 0; i < 40; i++ {
		r.Record(EvBase, 0, 0, 0)
	}
	r.coarse.Store(0) // the stale store
	r.Record(EvRunEnd, 0, 0, 0)
	evs := r.Snapshot()
	if last := evs[len(evs)-1]; last.Kind != EvRunEnd {
		t.Fatalf("snapshot ends with %v at %d, want run-end", last.Kind, last.TS)
	}

	const future = int64(1) << 62
	r.coarse.Store(future)
	for i := 0; i < clockEvery; i++ {
		r.Record(EvBase, 0, 0, 0)
	}
	r.Record(EvRunStart, 0, 0, 0)
	if got := r.coarse.Load(); got != future {
		t.Fatalf("coarse clock moved back from %d to %d", future, got)
	}
}
