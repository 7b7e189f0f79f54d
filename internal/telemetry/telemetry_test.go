package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestShardRecordingAndSnapshot(t *testing.T) {
	r := New()
	r.RunStarted()
	w := NewWalk(true)
	s := w.Acquire()
	s.HyperCut(2, 9, 3)
	s.TimeCut()
	s.Base(100, true)
	s.End()
	s.Base(28, false)
	s.End()
	s.Spawned(3)
	s.Inlined(1)
	w.Release(s)
	ws := w.Stats()
	r.RunFinished(&ws)

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
	if st.BaseVolumeLe[7] != 1 || st.BaseVolumeLe[5] != 1 {
		t.Fatalf("le bins wrong: le=2^7 %d, le=2^5 %d", st.BaseVolumeLe[7], st.BaseVolumeLe[5])
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

// TestShardReuse: a walk recycles released shards, so its Workers count is
// its peak of concurrently held shards, and a recorder keeps the most any
// one walk used. A finished walk's shards come back zeroed in later walks,
// and only a timed walk reports wall and busy time.
func TestShardReuse(t *testing.T) {
	w := NewWalk(true)
	a := w.Acquire()
	b := w.Acquire()
	if a == b {
		t.Fatal("concurrent shards must be distinct")
	}
	w.Release(b)
	c := w.Acquire()
	if c != b {
		t.Fatal("released shard should be recycled")
	}
	w.Release(a)
	w.Release(c)
	st := w.Stats()
	if st.Workers != 2 {
		t.Fatalf("Workers = %d, want 2", st.Workers)
	}
	r := New()
	for _, st := range []Stats{st, NewWalk(true).Stats()} {
		r.RunStarted()
		r.RunFinished(&st)
	}
	if n := r.Snapshot().Workers; n != 2 {
		t.Fatalf("recorder Workers = %d, want the largest walk's 2", n)
	}
	for i := range 4 { // the pool may drop a shard; recycled or not, it starts empty
		timed := i%2 == 0
		w := NewWalk(timed)
		s := w.Acquire()
		s.Base(8, true)
		s.End()
		w.Release(s)
		st := w.Stats()
		if st.Bases != 1 || st.Workers != 1 || st.BasePoints != 8 {
			t.Fatalf("a later walk counts %d bases over %d points on %d workers, want 1, 8, 1",
				st.Bases, st.BasePoints, st.Workers)
		}
		if (st.WorkerBusy != nil) != timed || (st.Wall > 0) != timed {
			t.Fatalf("timed=%v walk reports busy time %v over %v", timed, st.WorkerBusy, st.Wall)
		}
	}
}

// TestLog2Bucket: one histogram cell yields both bins of a volume, the
// floor-log2 bucket of BaseVolumeHist and the le bin of BaseVolumeLe.
func TestLog2Bucket(t *testing.T) {
	cases := map[int64][2]int{ // volume: floor(log2), smallest e with v <= 2^e
		0: {0, 0}, 1: {0, 0}, 2: {1, 1}, 3: {1, 2}, 4: {2, 2}, 5: {2, 3},
		1023: {9, 10}, 1024: {10, 10}, 1025: {10, 11}, 1<<62 + 1: {62, 63},
	}
	for v, want := range cases {
		e, p := volumeCell(v)
		if got := [2]int{e - 1 + p, e}; got != want {
			t.Errorf("volumeCell(%d) gives floor %d, le %d; want %v", v, got[0], got[1], want)
		}
	}
}

// TestStatsDelta: a recorder accumulates the walks it is handed, and Delta
// of two snapshots is exactly the walks in between.
func TestStatsDelta(t *testing.T) {
	r := New()
	walk := func(vol int64, interior bool, spawns int) {
		w := NewWalk(true)
		s := w.Acquire()
		s.Base(vol, interior)
		s.End()
		s.Spawned(spawns)
		w.Release(s)
		r.RunStarted()
		st := w.Stats()
		r.RunFinished(&st)
	}
	walk(10, true, 0)
	pre := r.Snapshot()
	walk(20, false, 2)
	d := r.Snapshot().Delta(pre)
	if d.Bases != 1 || d.BasePoints != 20 || d.InteriorBases != 0 || d.Spawns != 2 {
		t.Fatalf("delta wrong: %+v", d)
	}
	if d.BaseVolumeHist[4] != 1 || d.BaseVolumeHist[3] != 0 || d.BaseVolumeLe[5] != 1 || d.BaseVolumeLe[4] != 0 {
		t.Fatal("delta histogram wrong")
	}
	if d.Wall <= 0 || len(d.WorkerBusy) != 1 || d.WorkerBusy[0] <= 0 {
		t.Fatalf("delta wall %v, busy %v; want both positive", d.Wall, d.WorkerBusy)
	}
	if tot := r.Snapshot(); tot.Bases != 2 || tot.BasePoints != 30 {
		t.Fatalf("recorder total %d bases over %d points, want 2 over 30", tot.Bases, tot.BasePoints)
	}
}

func TestReportRenders(t *testing.T) {
	r := New()
	r.RunStarted()
	w := NewWalk(true)
	s := w.Acquire()
	s.HyperCut(1, 3, 2)
	s.Base(64, true)
	s.End()
	w.Release(s)
	st := w.Stats()
	r.RunFinished(&st)
	rep := r.Snapshot().Report()
	for _, want := range []string{"hyperspace cuts", "point updates", "achieved parallelism", "volume histogram"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestConcurrentShards exercises the acquire/record/release cycle of
// concurrent walks, each from many goroutines at once, handing their Stats
// to one recorder while another goroutine snapshots it; run under -race
// this validates the sharding and accumulation contracts.
func TestConcurrentShards(t *testing.T) {
	const walks, workers, events = 3, 8, 50
	r := New()
	stop := make(chan struct{})
	snapped := make(chan struct{})
	go func() { // snapshots race the walks: the recorder allows it
		defer close(snapped)
		for {
			if st := r.Snapshot(); st.Bases > walks*workers*events {
				t.Errorf("snapshot counts %d bases, more than were recorded", st.Bases)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	var all sync.WaitGroup
	for range walks {
		all.Add(1)
		go func() {
			defer all.Done()
			r.RunStarted()
			w := NewWalk(true)
			var wg sync.WaitGroup
			for range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < events; i++ {
						s := w.Acquire()
						s.HyperCut(1, 3, 2)
						s.Base(int64(i+1), i%2 == 0)
						s.End()
						s.Spawned(1)
						w.Release(s)
					}
				}()
			}
			wg.Wait()
			st := w.Stats()
			if st.Bases != workers*events || st.Workers < 1 || st.Workers > workers {
				t.Errorf("walk lost events: %d bases over %d workers", st.Bases, st.Workers)
			}
			r.RunFinished(&st)
		}()
	}
	all.Wait()
	close(stop)
	<-snapped
	st := r.Snapshot()
	if st.Bases != walks*workers*events || st.HyperCuts != walks*workers*events || st.Spawns != walks*workers*events {
		t.Fatalf("lost events: %+v", st)
	}
	if st.Workers < 1 || st.Workers > workers {
		t.Fatalf("Workers = %d, want in [1,%d]", st.Workers, workers)
	}
}
