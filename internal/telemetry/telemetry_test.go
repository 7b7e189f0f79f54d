package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestShardRecordingAndSnapshot(t *testing.T) {
	r := New()
	r.RunStarted()
	s := r.Acquire()
	s.HyperCut(2, 9, 3)
	s.TimeCut()
	s.Base(100, true)
	s.End()
	s.Base(28, false)
	s.End()
	s.Spawned(3)
	s.Inlined(1)
	r.Release(s)
	r.RunFinished()

	st := r.Snapshot()
	if st.HyperCuts != 1 || st.HyperByK[2] != 1 || st.Fanout != 9 || st.Levels != 3 {
		t.Fatalf("hyper-cut counters wrong: %+v", st)
	}
	if st.TimeCuts != 1 || st.Bases != 2 || st.InteriorBases != 1 || st.BoundaryBases() != 1 {
		t.Fatalf("cut/base counters wrong: %+v", st)
	}
	if st.BasePoints != 128 {
		t.Fatalf("BasePoints = %d, want 128", st.BasePoints)
	}
	if st.BaseVolumeHist[6] != 1 || st.BaseVolumeHist[4] != 1 {
		t.Fatalf("histogram wrong: 2^6 bucket=%d 2^4 bucket=%d", st.BaseVolumeHist[6], st.BaseVolumeHist[4])
	}
	if st.Spawns != 3 || st.Inlines != 1 {
		t.Fatalf("spawn counters wrong: %+v", st)
	}
	if st.Zoids() != 4 {
		t.Fatalf("Zoids() = %d, want 4", st.Zoids())
	}
	if st.Wall <= 0 {
		t.Fatal("wall time not recorded")
	}
	if st.BusyTotal() <= 0 || st.AchievedParallelism() <= 0 {
		t.Fatal("busy time not recorded")
	}
}

func TestShardReuse(t *testing.T) {
	r := New()
	a := r.Acquire()
	b := r.Acquire()
	if a == b {
		t.Fatal("concurrent shards must be distinct")
	}
	r.Release(b)
	c := r.Acquire()
	if c != b {
		t.Fatal("released shard should be recycled")
	}
	r.Release(a)
	r.Release(c)
	if w := r.Snapshot().Workers; w != 2 {
		t.Fatalf("Workers = %d, want 2", w)
	}
}

func TestLog2Bucket(t *testing.T) {
	cases := map[int64]int{0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 1023: 9, 1024: 10}
	for v, want := range cases {
		if got := log2Bucket(v); got != want {
			t.Errorf("log2Bucket(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestStatsDelta(t *testing.T) {
	r := New()
	s := r.Acquire()
	s.Base(10, true)
	s.End()
	pre := r.Snapshot()
	s.Base(20, false)
	s.End()
	s.Spawned(2)
	r.Release(s)
	d := r.Snapshot().Delta(pre)
	if d.Bases != 1 || d.BasePoints != 20 || d.InteriorBases != 0 || d.Spawns != 2 {
		t.Fatalf("delta wrong: %+v", d)
	}
	if d.BaseVolumeHist[4] != 1 || d.BaseVolumeHist[3] != 0 {
		t.Fatal("delta histogram wrong")
	}
}

func TestReportRenders(t *testing.T) {
	r := New()
	r.RunStarted()
	s := r.Acquire()
	s.HyperCut(1, 3, 2)
	s.Base(64, true)
	s.End()
	r.Release(s)
	r.RunFinished()
	rep := r.Snapshot().Report()
	for _, want := range []string{"hyperspace cuts", "point updates", "achieved parallelism", "volume histogram"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestConcurrentShards exercises the acquire/record/release cycle from many
// goroutines at once; run under -race this validates the sharding contract.
func TestConcurrentShards(t *testing.T) {
	r := New()
	r.RunStarted()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s := r.Acquire()
				s.HyperCut(1, 3, 2)
				s.Base(int64(i+1), i%2 == 0)
				s.End()
				s.Spawned(1)
				r.Release(s)
			}
		}()
	}
	wg.Wait()
	r.RunFinished()
	st := r.Snapshot()
	if st.Bases != 16*50 || st.HyperCuts != 16*50 || st.Spawns != 16*50 {
		t.Fatalf("lost events: %+v", st)
	}
	if st.Workers < 1 || st.Workers > 16 {
		t.Fatalf("Workers = %d, want in [1,16]", st.Workers)
	}
}
