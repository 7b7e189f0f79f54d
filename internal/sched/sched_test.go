package sched

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

// doAll runs fns as one fork-join Region, "spawn f0; ... spawn fn-2; call
// fn-1; sync" when parallel and all inline in order otherwise, reporting the
// inline runs to c (the Region reports the spawns).
func doAll(parallel bool, c Counter, fns ...func()) {
	spawn := 0
	if parallel {
		spawn = max(len(fns)-1, 0)
	}
	if c != nil && len(fns) > 0 {
		c.Inlined(len(fns) - spawn)
	}
	rg := Region{Counter: c}
	defer rg.Wait()
	for i, f := range fns {
		if i < spawn {
			rg.Go(f)
		} else {
			f()
		}
	}
}

func TestDo2(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		var a, b atomic.Bool
		doAll(parallel, nil, func() { a.Store(true) }, func() { b.Store(true) })
		if !a.Load() || !b.Load() {
			t.Fatalf("parallel=%v: both closures must run", parallel)
		}
	}
}

func TestDo2SerialOrder(t *testing.T) {
	var order []int
	doAll(false, nil, func() { order = append(order, 1) }, func() { order = append(order, 2) })
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("serial doAll order = %v", order)
	}
}

func TestDoAll(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		for _, n := range []int{0, 1, 2, 7, 33} {
			var count atomic.Int64
			fns := make([]func(), n)
			for i := range fns {
				fns[i] = func() { count.Add(1) }
			}
			doAll(parallel, nil, fns...)
			if count.Load() != int64(n) {
				t.Fatalf("parallel=%v n=%d: ran %d", parallel, n, count.Load())
			}
		}
	}
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	f := func(lo8, span8 uint8, grain8 uint8, parallel bool) bool {
		lo := int(lo8)
		hi := lo + int(span8)
		grain := int(grain8)
		marks := make([]atomic.Int32, int(span8)+1)
		For(parallel, lo, hi, grain, func(i0, i1 int) {
			for i := i0; i < i1; i++ {
				marks[i-lo].Add(1)
			}
		})
		for i := 0; i < hi-lo; i++ {
			if marks[i].Load() != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestForEmptyAndNegative(t *testing.T) {
	called := false
	For(true, 5, 5, 1, func(i0, i1 int) { called = true })
	For(true, 5, 3, 1, func(i0, i1 int) { called = true })
	if called {
		t.Fatal("empty ranges must not invoke the body")
	}
}

func TestForChunksRespectBounds(t *testing.T) {
	For(true, 10, 1000, 7, func(i0, i1 int) {
		if i0 < 10 || i1 > 1000 || i0 >= i1 {
			t.Errorf("bad chunk [%d,%d)", i0, i1)
		}
	})
}

func TestWorkersPositive(t *testing.T) {
	if Workers() < 1 {
		t.Fatal("Workers must be at least 1")
	}
}

// tally is a test Counter.
type tally struct{ spawned, inlined int }

func (c *tally) Spawned(n int) { c.spawned += n }
func (c *tally) Inlined(n int) { c.inlined += n }

func TestDo2Counted(t *testing.T) {
	var c tally
	doAll(false, &c, func() {}, func() {})
	if c.spawned != 0 || c.inlined != 2 {
		t.Fatalf("serial doAll(2): %+v", c)
	}
	c = tally{}
	doAll(true, &c, func() {}, func() {})
	if c.spawned != 1 || c.inlined != 1 {
		t.Fatalf("parallel doAll(2): %+v", c)
	}
}

func TestDoAllCounted(t *testing.T) {
	mk := func(n int) []func() {
		fns := make([]func(), n)
		for i := range fns {
			fns[i] = func() {}
		}
		return fns
	}
	var c tally
	doAll(true, &c, mk(5)...)
	if c.spawned != 4 || c.inlined != 1 {
		t.Fatalf("parallel doAll(5): %+v", c)
	}
	c = tally{}
	doAll(false, &c, mk(5)...)
	if c.spawned != 0 || c.inlined != 5 {
		t.Fatalf("serial doAll(5): %+v", c)
	}
	c = tally{}
	doAll(true, &c, mk(1)...)
	if c.spawned != 0 || c.inlined != 1 {
		t.Fatalf("parallel doAll(1) must inline: %+v", c)
	}
	c = tally{}
	doAll(true, &c)
	if c.spawned != 0 || c.inlined != 0 {
		t.Fatalf("empty doAll must count nothing: %+v", c)
	}
	// nil counter must not panic.
	doAll(true, nil, mk(3)...)
}

// watcher is a test WorkerObserver.
type watcher struct {
	tally
	started, finished atomic.Int32
}

func (w *watcher) WorkerStarted()  { w.started.Add(1) }
func (w *watcher) WorkerFinished() { w.finished.Add(1) }

func TestRegionCountsEachSpawn(t *testing.T) {
	var w watcher
	var ran atomic.Int32
	func() {
		rg := Region{Counter: &w}
		defer rg.Wait()
		for i := 0; i < 5; i++ {
			if i%2 == 0 {
				rg.Go(func() { ran.Add(1) })
			} else {
				ran.Add(1) // inline work is the owner's to run and count
			}
		}
	}()
	if ran.Load() != 5 || w.spawned != 3 || w.inlined != 0 {
		t.Fatalf("ran %d, counter %+v; want 5 run, 3 spawned, inlines left to the owner", ran.Load(), w.tally)
	}
	if w.started.Load() != 3 || w.finished.Load() != 3 {
		t.Fatalf("worker notifications %d/%d, want 3/3", w.started.Load(), w.finished.Load())
	}
}

func TestRegionThatSpawnsNothingAllocatesNothing(t *testing.T) {
	n := testing.AllocsPerRun(100, func() {
		var rg Region
		defer rg.Wait()
	})
	if n != 0 {
		t.Fatalf("an unused Region cost %v allocations", n)
	}
}
