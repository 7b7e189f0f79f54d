package sched

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

// doAll runs fns as one fork-join Region, "spawn f0; ... spawn fn-2; call
// fn-1; sync" when parallel and all inline in order otherwise.
func doAll(parallel bool, fns ...func()) {
	spawn := 0
	if parallel {
		spawn = max(len(fns)-1, 0)
	}
	var rg Region
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
		doAll(parallel, func() { a.Store(true) }, func() { b.Store(true) })
		if !a.Load() || !b.Load() {
			t.Fatalf("parallel=%v: both closures must run", parallel)
		}
	}
}

func TestDo2SerialOrder(t *testing.T) {
	var order []int
	doAll(false, func() { order = append(order, 1) }, func() { order = append(order, 2) })
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
			doAll(parallel, fns...)
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

func TestRegionThatSpawnsNothingAllocatesNothing(t *testing.T) {
	n := testing.AllocsPerRun(100, func() {
		var rg Region
		defer rg.Wait()
	})
	if n != 0 {
		t.Fatalf("an unused Region cost %v allocations", n)
	}
}
