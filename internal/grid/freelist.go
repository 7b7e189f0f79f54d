package grid

import (
	"slices"
	"sync"
)

// A daemon builds fresh arrays for every job and a supervised run two
// checkpoints, all of a few sizes, and drops them when it is done: left to
// the collector, that storage is most of what the process allocates. The
// free list keeps float64 storage that Release hands back and gives it to
// the next NewArray or CheckpointInto that asks for exactly that length.
//
// It is bounded in bytes and in buffers. A Release that would pass either
// bound drops the oldest buffers first, so the list follows the sizes in
// use; storage larger than the byte bound is left to the collector.
const (
	freeListBytes   = 64 << 20
	freeListBuffers = 64
)

var freeList struct {
	mu   sync.Mutex
	held int         // bytes
	bufs [][]float64 // oldest first
}

// take returns n elements of storage, zeroed if zero is set: from the free
// list where T is float64 and it holds a buffer of length n, else new.
func take[T any](n int, zero bool) []T {
	var s []T
	if f, ok := any(&s).(*[]float64); ok {
		*f = takeFloat64(n)
	}
	if s == nil {
		return make([]T, n)
	}
	if zero {
		clear(s)
	}
	return s
}

func takeFloat64(n int) []float64 {
	fl := &freeList
	fl.mu.Lock()
	defer fl.mu.Unlock()
	for i := len(fl.bufs) - 1; i >= 0; i-- {
		if s := fl.bufs[i]; len(s) == n {
			fl.bufs = slices.Delete(fl.bufs, i, i+1)
			fl.held -= 8 * n
			return s
		}
	}
	return nil
}

// release gives s to the free list where T is float64. The caller must hold
// no other reference to it.
func release[T any](s []T) {
	if f, ok := any(&s).(*[]float64); ok {
		releaseFloat64(*f)
	}
}

func releaseFloat64(s []float64) {
	if len(s) == 0 || 8*len(s) > freeListBytes {
		return
	}
	fl := &freeList
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if fl.bufs == nil {
		fl.bufs = make([][]float64, 0, freeListBuffers)
	}
	for len(fl.bufs) == freeListBuffers || fl.held+8*len(s) > freeListBytes {
		fl.held -= 8 * len(fl.bufs[0])
		fl.bufs = slices.Delete(fl.bufs, 0, 1)
	}
	fl.bufs = append(fl.bufs, s)
	fl.held += 8 * len(s)
}

// Release gives the array's storage to the free list that NewArray draws
// from. The array must not be used afterwards: every access panics. Release
// is for an owner that knows nothing else holds a slot of the array.
func (a *Array[T]) Release() {
	release(a.data)
	a.data = nil
}

// Release gives the checkpoint's storage to the free list, as
// Array.Release does; restoring from it afterwards is an error. Storage a
// caller handed to NewArrayCheckpoint is only dropped, never pooled: the
// caller may still hold it.
func (cp *ArrayCheckpoint[T]) Release() {
	if cp.owned {
		release(cp.data)
	}
	cp.data, cp.owned = nil, false
}
