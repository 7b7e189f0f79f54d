package sched

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
)

// recovered runs f and returns the value it panics with, nil if none.
func recovered(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

func TestDo2PanicInSpawnedTask(t *testing.T) {
	var sibling atomic.Bool
	r := recovered(func() {
		doAll(true,
			func() { panic("boom-a") },
			func() { sibling.Store(true) })
	})
	pe, ok := r.(*PanicError)
	if !ok {
		t.Fatalf("recovered %T %v, want *PanicError", r, r)
	}
	if pe.Value != "boom-a" {
		t.Fatalf("Value = %v, want boom-a", pe.Value)
	}
	if len(pe.Stack) == 0 || !bytes.Contains(pe.Stack, []byte("goroutine")) {
		t.Fatalf("Stack not captured: %q", pe.Stack)
	}
	if !sibling.Load() {
		t.Fatal("inline sibling did not drain before the rethrow")
	}
}

func TestDo2PanicInInlineTask(t *testing.T) {
	var sibling atomic.Bool
	r := recovered(func() {
		doAll(true,
			func() { sibling.Store(true) },
			func() { panic("boom-b") })
	})
	pe, ok := r.(*PanicError)
	if !ok {
		t.Fatalf("recovered %T %v, want *PanicError", r, r)
	}
	if pe.Value != "boom-b" {
		t.Fatalf("Value = %v, want boom-b", pe.Value)
	}
	if !sibling.Load() {
		t.Fatal("spawned sibling did not drain before the rethrow")
	}
}

func TestDo2SerialPanicUnwrapped(t *testing.T) {
	// Serial execution has no goroutines in flight: the panic must unwind
	// naturally, unwrapped, so purely serial users see the original value.
	r := recovered(func() {
		doAll(false, func() { panic("serial") }, func() {})
	})
	if r != "serial" {
		t.Fatalf("recovered %v, want the raw value", r)
	}
}

func TestDoAllPanicDrainsAllSiblings(t *testing.T) {
	const n = 16
	var ran atomic.Int64
	r := recovered(func() {
		fns := make([]func(), n)
		for i := range fns {
			i := i
			fns[i] = func() {
				ran.Add(1)
				if i == 3 {
					panic(i)
				}
			}
		}
		doAll(true, fns...)
	})
	pe, ok := r.(*PanicError)
	if !ok {
		t.Fatalf("recovered %T %v, want *PanicError", r, r)
	}
	if pe.Value != 3 {
		t.Fatalf("Value = %v, want 3", pe.Value)
	}
	if ran.Load() != n {
		t.Fatalf("%d of %d siblings ran", ran.Load(), n)
	}
}

func TestNestedSyncPreservesOriginalPanic(t *testing.T) {
	// A panic crossing two sync points must arrive as the same
	// *PanicError, not re-wrapped, so the stack names the real culprit.
	r := recovered(func() {
		doAll(true,
			func() {
				doAll(true, func() { panic("inner") }, func() {})
			},
			func() {})
	})
	pe, ok := r.(*PanicError)
	if !ok {
		t.Fatalf("recovered %T %v, want *PanicError", r, r)
	}
	if pe.Value != "inner" {
		t.Fatalf("Value = %v, want inner (no re-wrap)", pe.Value)
	}
	if pv, ok := pe.Value.(*PanicError); ok {
		t.Fatalf("double-wrapped: %v", pv)
	}
}

func TestPanicErrorUnwrap(t *testing.T) {
	sentinel := errors.New("sentinel")
	r := recovered(func() {
		doAll(true, func() { panic(sentinel) }, func() {})
	})
	pe, ok := r.(*PanicError)
	if !ok {
		t.Fatalf("recovered %T, want *PanicError", r)
	}
	if !errors.Is(pe, sentinel) {
		t.Fatal("errors.Is does not see through PanicError to an error panic value")
	}
	if (&PanicError{Value: "not an error"}).Unwrap() != nil {
		t.Fatal("Unwrap of a non-error value must be nil")
	}
}

func TestForPanicPropagates(t *testing.T) {
	var visited atomic.Int64
	r := recovered(func() {
		For(true, 0, 1000, 1, func(i0, i1 int) {
			visited.Add(int64(i1 - i0))
			if i0 == 0 {
				panic("chunk")
			}
		})
	})
	pe, ok := r.(*PanicError)
	if !ok {
		t.Fatalf("recovered %T %v, want *PanicError", r, r)
	}
	if pe.Value != "chunk" {
		t.Fatalf("Value = %v", pe.Value)
	}
	// The serial path still unwinds raw.
	r = recovered(func() {
		For(false, 0, 10, 1, func(i0, i1 int) { panic("serial-for") })
	})
	if r != "serial-for" {
		t.Fatalf("serial For recovered %v", r)
	}
}

// A Region that has spawned nothing is not a parallel region: a panic in
// the owner's inline code unwinds raw past the deferred Wait.
func TestRegionWithoutSpawnLeavesPanicAlone(t *testing.T) {
	r := recovered(func() {
		var rg Region
		defer rg.Wait()
		panic("inline, nothing in flight")
	})
	if r != "inline, nothing in flight" {
		t.Fatalf("recovered %v, want the raw value", r)
	}
}

// Once a task is in flight, a panic in the owner's inline code is the
// region's: the spawned task drains and Wait re-raises a *PanicError.
func TestRegionInlinePanicDrainsSpawned(t *testing.T) {
	var drained atomic.Bool
	release := make(chan struct{})
	r := recovered(func() {
		var rg Region
		defer rg.Wait()
		rg.Go(func() {
			<-release
			drained.Store(true)
		})
		close(release)
		panic("inline, one in flight")
	})
	pe, ok := r.(*PanicError)
	if !ok || pe.Value != "inline, one in flight" {
		t.Fatalf("recovered %T %v, want *PanicError of the inline panic", r, r)
	}
	if !drained.Load() {
		t.Fatal("spawned task did not drain before the rethrow")
	}
}
