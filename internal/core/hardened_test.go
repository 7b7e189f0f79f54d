package core

// Engine-level failure tests: panic conversion with zoid location, context
// cancellation at the walker layer, and probe consistency of aborted
// runs. The public-API behaviours (poisoning, checkpoint/restore) are
// tested in the root package.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"pochoir/internal/sched"
	"pochoir/internal/zoid"
)

// newTestWalker builds a 2D walker over sizes with fine cutoffs and the
// given base function on both clones.
func newTestWalker(sizes []int, serial bool, alg Algorithm, base BaseFunc) *Walker {
	w := &Walker{
		NDims:      len(sizes),
		Algorithm:  alg,
		Serial:     serial,
		TimeCutoff: 2,
		Grain:      1,
	}
	for i, n := range sizes {
		w.Sizes[i] = n
		w.Slopes[i] = 1
		w.Reach[i] = 1
		w.Periodic[i] = true
		w.SpaceCutoff[i] = 8
	}
	w.Boundary = base
	w.Interior = base
	return w
}

func TestRunConvertsKernelPanic(t *testing.T) {
	for _, serial := range []bool{true, false} {
		for _, alg := range []Algorithm{TRAP, STRAP} {
			var calls atomic.Int64
			w := newTestWalker([]int{40, 40}, serial, alg, func(z zoid.Zoid) {
				if calls.Add(1) == 3 {
					panic("third base dies")
				}
			})
			err := w.Run(1, 17)
			var kp *KernelPanicError
			if !errors.As(err, &kp) {
				t.Fatalf("serial=%v alg=%v: got %T %v, want *KernelPanicError", serial, alg, err, err)
			}
			if kp.Value != "third base dies" {
				t.Fatalf("Value = %v", kp.Value)
			}
			if kp.Zoid.N != 2 || !kp.Zoid.WellDefined() {
				t.Fatalf("zoid not captured: %+v", kp.Zoid)
			}
			if len(kp.Stack) == 0 {
				t.Fatal("stack not captured")
			}
		}
	}
}

func TestRunConvertsEnginePanicOutsideBase(t *testing.T) {
	// A panic raised outside any base case (here: simulated via a base
	// that re-raises an already-wrapped scheduler panic) must surface
	// unwrapped rather than double-wrapped.
	pe := &sched.PanicError{Value: "engine"}
	w := newTestWalker([]int{32, 32}, true, TRAP, func(z zoid.Zoid) { panic(pe) })
	err := w.Run(1, 9)
	if !errors.Is(err, error(pe)) {
		t.Fatalf("got %v, want the original *sched.PanicError", err)
	}
}

func TestRunContextCancelStopsPromptly(t *testing.T) {
	for _, serial := range []bool{true, false} {
		var calls atomic.Int64
		release := make(chan struct{})
		w := newTestWalker([]int{64, 64}, serial, TRAP, func(z zoid.Zoid) {
			if calls.Add(1) == 1 {
				close(release) // first base reached: cancel now
			}
			time.Sleep(2 * time.Millisecond)
		})
		p := newRecProbe()
		w.Probe = p
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			<-release
			cancel()
		}()
		err := w.RunContext(ctx, 1, 33)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("serial=%v: got %v, want context.Canceled", serial, err)
		}
		// The probe hears the latch once, and RunEnd the promoted error.
		if p.cancels.Load() != 1 || p.err != err {
			t.Fatalf("serial=%v: %d cancellations reported, RunEnd saw %v", serial, p.cancels.Load(), p.err)
		}
		// The decomposition has hundreds of base cases; a prompt cancel
		// must have skipped almost all of them.
		if n := calls.Load(); n > 200 {
			t.Fatalf("serial=%v: %d base cases ran after cancellation", serial, n)
		}
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	var calls atomic.Int64
	w := newTestWalker([]int{16, 16}, true, TRAP, func(z zoid.Zoid) { calls.Add(1) })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := w.RunContext(ctx, 1, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if calls.Load() != 0 {
		t.Fatalf("%d base cases ran under a dead context", calls.Load())
	}
}

func TestRunBackgroundContextUnchanged(t *testing.T) {
	// Run must behave exactly as before: complete, nil error.
	var calls atomic.Int64
	w := newTestWalker([]int{24, 24}, false, TRAP, func(z zoid.Zoid) { calls.Add(1) })
	if err := w.Run(1, 9); err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 {
		t.Fatal("no base cases ran")
	}
}

// TestAbortedRunReleasesTelemetryShards: a run aborted by a kernel panic
// still releases every task's probe, reports the panic once, and ends the
// run with the error, so a telemetry sink gets every shard back with its
// spans closed.
func TestAbortedRunReleasesTelemetryShards(t *testing.T) {
	p := newRecProbe()
	var calls atomic.Int64
	w := newTestWalker([]int{48, 48}, false, TRAP, func(z zoid.Zoid) {
		if calls.Add(1) == 5 {
			panic("abort")
		}
	})
	w.Probe = p
	err := w.Run(1, 17)
	if err == nil {
		t.Fatal("aborted run returned nil")
	}
	if p.bases.Load() == 0 {
		t.Fatal("aborted run reported nothing")
	}
	if p.tasks.Load() == 0 || p.released.Load() != p.tasks.Load() {
		t.Fatalf("%d task probes handed out, %d released", p.tasks.Load(), p.released.Load())
	}
	if p.panics.Load() != 1 || p.ends.Load() != 1 || p.err != err {
		t.Fatalf("%d panics, %d run ends (saw %v); want 1, 1 and %v", p.panics.Load(), p.ends.Load(), p.err, err)
	}
}
