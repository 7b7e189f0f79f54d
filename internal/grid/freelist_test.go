package grid

import (
	"math"
	"sync"
	"testing"
)

// heldBytes is the free list's byte count, checked against its buffers.
func heldBytes(t *testing.T) int {
	t.Helper()
	freeList.mu.Lock()
	defer freeList.mu.Unlock()
	sum := 0
	for _, s := range freeList.bufs {
		sum += 8 * len(s)
	}
	if sum != freeList.held || len(freeList.bufs) > freeListBuffers {
		t.Fatalf("free list holds %d buffers of %d bytes but counts %d", len(freeList.bufs), sum, freeList.held)
	}
	return freeList.held
}

// TestReleasedStorageComesBackZeroed: an array built after a dirty Release
// of the same size reuses its storage, every slot zeroed; a checkpoint
// draws from the same list.
func TestReleasedStorageComesBackZeroed(t *testing.T) {
	a := MustNewArray[float64](2, 7, 13) // a length no other test uses
	for tt := 0; tt < a.Slots(); tt++ {
		a.Fill(tt, math.NaN())
	}
	data := &a.Slot(0)[0]
	a.Release()
	b := MustNewArray[float64](2, 7, 13)
	if &b.Slot(0)[0] != data {
		t.Fatal("NewArray did not reuse the storage of a released array of its size")
	}
	for tt := 0; tt < b.Slots(); tt++ {
		for i, v := range b.Slot(tt) {
			if v != 0 || math.Signbit(v) {
				t.Fatalf("slot %d point %d of reused storage holds %v, want 0", tt, i, v)
			}
		}
	}
	b.Fill(0, 1)
	b.Fill(1, 2)
	cp := b.Checkpoint(0) // 2 live slots: the length of b itself less a slot
	cp.Release()
	c := MustNewArray[float64](1, 7, 13) // 2 slots: cp's length
	if c.Slot(0)[0] != 0 || c.Slot(1)[0] != 0 {
		t.Fatal("storage of a released checkpoint came back dirty")
	}
}

// TestReleasedArrayPanics: every access to a released array panics rather
// than reading storage that another array may own by now, and restoring
// from a released checkpoint is an error.
func TestReleasedArrayPanics(t *testing.T) {
	for name, use := range map[string]func(a *Array[float64]){
		"Slot": func(a *Array[float64]) { _ = a.Slot(0) },
		"Get":  func(a *Array[float64]) { _ = a.Get(0, 1, 1) },
		"Set":  func(a *Array[float64]) { a.Set(1, 3, 1, 1) },
		"Fill": func(a *Array[float64]) { a.Fill(0, 3) },
	} {
		a := MustNewArray[float64](1, 4, 4)
		a.Release()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released array did not panic", name)
				}
			}()
			use(a)
		}()
		a.Release() // a second Release is a no-op
	}
	a := MustNewArray[float64](1, 4, 4)
	cp := a.Checkpoint(0)
	cp.Release()
	if err := a.Restore(cp); err == nil {
		t.Fatal("Restore accepted a released checkpoint")
	}
	// Storage of other element types is not pooled, and releasing it is safe.
	b := MustNewArray[int](1, 4, 4)
	b.Release()
	if c := MustNewArray[int](1, 4, 4); c.Slot(1)[15] != 0 {
		t.Fatal("a fresh int array is not zeroed")
	}
}

// TestReleasedCallerStorageIsNotPooled: a checkpoint built by
// NewArrayCheckpoint wraps storage its caller may still hold, so releasing
// it leaves that storage out of the free list, and the next array of its
// length gets other storage.
func TestReleasedCallerStorageIsNotPooled(t *testing.T) {
	data := make([]float64, 7*17) // the live slot of a 7x17 depth-1 array; no other test uses it
	cp, err := NewArrayCheckpoint([]int{7, 17}, 2, 0, data)
	if err != nil {
		t.Fatal(err)
	}
	before := heldBytes(t)
	cp.Release()
	if heldBytes(t) != before {
		t.Fatal("releasing a caller-built checkpoint put its storage in the free list")
	}
	if a := MustNewArray[float64](1, 7*17/2, 1); &a.Slot(0)[0] == &data[0] {
		t.Fatal("NewArray handed out storage a caller still holds")
	}
	a := MustNewArray[float64](1, 7, 17)
	if err := a.Restore(cp); err == nil {
		t.Fatal("Restore accepted a released checkpoint")
	}
}

// TestFreeListBound: past either bound a Release drops the oldest buffers,
// storage larger than the byte bound is never held, and the bytes held
// never pass it.
func TestFreeListBound(t *testing.T) {
	big := freeListBytes / 8 / 3 // three fit, a fourth does not
	var arrays []*Array[float64]
	for i := 0; i < 5; i++ {
		arrays = append(arrays, MustNewArray[float64](1, big/2))
	}
	for i, a := range arrays {
		a.Release()
		if held := heldBytes(t); held > freeListBytes {
			t.Fatalf("after release %d the free list holds %d bytes, bound %d", i, held, freeListBytes)
		}
	}
	for i := 0; i < 3*freeListBuffers; i++ {
		MustNewArray[float64](1, 1000+i).Release()
		heldBytes(t)
	}
	huge := MustNewArray[float64](1, freeListBytes/16+1) // two slots: just past the bound
	before := heldBytes(t)
	huge.Release()
	if heldBytes(t) != before {
		t.Fatal("the free list took storage larger than its byte bound")
	}
	// The newest buffer survived the evictions: the next array of its size
	// takes it (two slots of newest points).
	newest := 1000 + 3*freeListBuffers - 1
	MustNewArray[float64](1, newest)
	if heldBytes(t) != before-16*newest {
		t.Fatal("the newest released buffer was evicted")
	}
}

// TestFreeListAllocatesNothing: drawing pooled storage and handing it back
// allocate nothing, so a served job's small arrays cost no more than before.
func TestFreeListAllocatesNothing(t *testing.T) {
	MustNewArray[float64](1, 3, 11).Release()
	if n := testing.AllocsPerRun(100, func() { release(take[float64](66, true)) }); n != 0 {
		t.Fatalf("take and release made %v allocations, want 0", n)
	}
	fresh := testing.AllocsPerRun(100, func() { _ = MustNewArray[float64](1, 3, 12) })
	pooled := testing.AllocsPerRun(100, func() { MustNewArray[float64](1, 3, 11).Release() })
	if pooled != fresh-1 {
		t.Fatalf("NewArray made %v allocations from the free list and %v without, want one fewer", pooled, fresh)
	}
}

// TestFreeListConcurrent: goroutines drawing and releasing storage of a few
// sizes each get storage no other holds (run it under -race).
func TestFreeListConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				a := MustNewArray[float64](1, 5+i%3, 9)
				for tt := 0; tt < 2; tt++ {
					for j, v := range a.Slot(tt) {
						if v != 0 {
							t.Errorf("point %d of fresh storage holds %v", j, v)
							return
						}
					}
					a.Fill(tt, float64(g+1))
				}
				for _, v := range a.Slot(1) {
					if v != float64(g+1) {
						t.Errorf("storage shared with another goroutine: read %v, wrote %v", v, g+1)
						return
					}
				}
				a.Release()
			}
		}()
	}
	wg.Wait()
	heldBytes(t)
}
