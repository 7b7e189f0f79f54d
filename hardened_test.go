package pochoir_test

// Hardened-execution suite: panic isolation, context cancellation,
// run-state poisoning, and checkpoint/restore, exercised across the full
// regime matrix (TRAP/STRAP × serial/parallel) with the fault-injection
// harness in internal/faultpoint. Run under -race (`make race`): panic
// draining and the cancellation watcher are exactly the paths where a
// data race would hide.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"pochoir"
	"pochoir/internal/faultpoint"
)

// regimes is the decomposition/scheduling matrix every failure mode is
// tested against. Grain 1 forces the parallel regimes to actually spawn at
// every level even on small test grids.
var regimes = []struct {
	name string
	opts pochoir.Options
}{
	{"TRAP-parallel", pochoir.Options{Grain: 1}},
	{"TRAP-serial", pochoir.Options{Serial: true}},
	{"STRAP-parallel", pochoir.Options{Algorithm: 1, Grain: 1}},
	{"STRAP-serial", pochoir.Options{Algorithm: 1, Serial: true}},
}

// heatStencil builds a periodic 2D heat stencil over an X×Y grid seeded
// with deterministic data, returning the stencil, its array, and the
// standard five-point kernel.
func heatStencil(t testing.TB, opts pochoir.Options, X, Y int, seed int64) (*pochoir.Stencil[float64], *pochoir.Array[float64], pochoir.Kernel) {
	t.Helper()
	sh := heat2DShape()
	st := pochoir.NewWithOptions[float64](sh, opts)
	u := pochoir.MustArray[float64](sh.Depth(), X, Y)
	u.RegisterBoundary(pochoir.PeriodicBoundary[float64]())
	st.MustRegisterArray(u)
	if err := u.CopyIn(0, randomGrid(X*Y, seed)); err != nil {
		t.Fatal(err)
	}
	kern := pochoir.K2(func(tt, x, y int) {
		c := u.Get(tt, x, y)
		u.Set(tt+1, c+
			cx*(u.Get(tt, x+1, y)-2*c+u.Get(tt, x-1, y))+
			cy*(u.Get(tt, x, y+1)-2*c+u.Get(tt, x, y-1)), x, y)
	})
	return st, u, kern
}

func TestKernelPanicReturnsStructuredError(t *testing.T) {
	const X, Y, steps = 48, 48, 12
	for _, rg := range regimes {
		t.Run(rg.name, func(t *testing.T) {
			st, u, _ := heatStencil(t, rg.opts, X, Y, 7)
			boom := errors.New("kernel exploded")
			kern := pochoir.K2(func(tt, x, y int) {
				if tt == 5 && x == 17 && y == 23 {
					panic(boom)
				}
				u.Set(tt+1, u.Get(tt, x, y), x, y)
			})
			err := st.Run(steps, kern)
			var kp *pochoir.KernelPanicError
			if !errors.As(err, &kp) {
				t.Fatalf("Run returned %T %v, want *KernelPanicError", err, err)
			}
			if kp.Value != boom {
				t.Fatalf("Value = %v, want the kernel's panic value", kp.Value)
			}
			if len(kp.Stack) == 0 || !strings.Contains(string(kp.Stack), "goroutine") {
				t.Fatalf("stack not captured: %q", kp.Stack)
			}
			if kp.Zoid.N != 2 || kp.Zoid.Height() < 1 {
				t.Fatalf("zoid location not captured: %+v", kp.Zoid)
			}
			// The panicking kernel application writes home time 6
			// (tt+1); the zoid must cover it.
			if kp.Zoid.T0 > 6 || 6 >= kp.Zoid.T1 {
				t.Fatalf("zoid time range [%d,%d) does not cover the panic at t=6", kp.Zoid.T0, kp.Zoid.T1)
			}
			// errors.Is sees through to the panic value when it was an error.
			if !errors.Is(err, boom) {
				t.Fatal("errors.Is(err, boom) = false")
			}
			if !st.Poisoned() {
				t.Fatal("stencil not poisoned after a kernel panic")
			}
		})
	}
}

func TestPoisonedStencilRefusesRunsUntilReset(t *testing.T) {
	const X, Y, steps = 48, 48, 8
	st, u, kern := heatStencil(t, pochoir.Options{Grain: 1}, X, Y, 11)
	init := make([]float64, X*Y)
	if err := u.CopyOut(0, init); err != nil {
		t.Fatal(err)
	}
	bad := pochoir.K2(func(tt, x, y int) { panic("dead") })
	if err := st.Run(steps, bad); err == nil {
		t.Fatal("panicking run returned nil")
	}
	if err := st.Run(steps, kern); !errors.Is(err, pochoir.ErrPoisoned) {
		t.Fatalf("poisoned Run returned %v, want ErrPoisoned", err)
	}
	if _, err := st.Checkpoint(); !errors.Is(err, pochoir.ErrPoisoned) {
		t.Fatalf("poisoned Checkpoint returned %v, want ErrPoisoned", err)
	}
	// Reset + re-initialize: the stencil runs again and matches the
	// independent reference.
	st.Reset()
	if st.Poisoned() || st.StepsRun() != 0 {
		t.Fatal("Reset did not clear state")
	}
	if err := u.CopyIn(0, init); err != nil {
		t.Fatal(err)
	}
	if err := st.Run(steps, kern); err != nil {
		t.Fatalf("Run after Reset: %v", err)
	}
	got := make([]float64, X*Y)
	if err := u.CopyOut(steps, got); err != nil {
		t.Fatal(err)
	}
	want := refHeat2D(init, X, Y, steps, true, 0)
	if d := maxAbsDiff(got, want); d > 1e-12 {
		t.Fatalf("post-Reset results diverge from reference: %g", d)
	}
}

func TestFaultInjectedPanicsAtBothSites(t *testing.T) {
	const X, Y, steps = 48, 48, 12
	// Fine cutoffs guarantee a deep decomposition, so depth-targeted
	// failpoints have depths to hit.
	fine := pochoir.Options{Grain: 1, TimeCutoff: 2, SpaceCutoff: []int{16, 16}}
	t.Run("base", func(t *testing.T) {
		defer faultpoint.DisarmAll()
		faultpoint.Arm(faultpoint.SiteBase, faultpoint.Spec{
			Kind: faultpoint.KindPanic, Depth: faultpoint.AnyDepth, After: 2,
		})
		st, _, kern := heatStencil(t, fine, X, Y, 13)
		err := st.Run(steps, kern)
		var kp *pochoir.KernelPanicError
		if !errors.As(err, &kp) {
			t.Fatalf("base-site fault returned %T %v, want *KernelPanicError", err, err)
		}
		var inj *faultpoint.Injected
		if !errors.As(err, &inj) || inj.Site != faultpoint.SiteBase {
			t.Fatalf("panic value = %v, want *faultpoint.Injected at the base site", kp.Value)
		}
		if !st.Poisoned() {
			t.Fatal("not poisoned")
		}
	})
	t.Run("cut", func(t *testing.T) {
		defer faultpoint.DisarmAll()
		faultpoint.Arm(faultpoint.SiteCut, faultpoint.Spec{
			Kind: faultpoint.KindPanic, Depth: 2,
		})
		st, _, kern := heatStencil(t, fine, X, Y, 17)
		err := st.Run(steps, kern)
		// A cut-site panic happens outside any base case: it surfaces as
		// an engine panic, not a kernel panic.
		var ep *pochoir.EnginePanicError
		if !errors.As(err, &ep) {
			t.Fatalf("cut-site fault returned %T %v, want *EnginePanicError", err, err)
		}
		var inj *faultpoint.Injected
		if !errors.As(err, &inj) || inj.Site != faultpoint.SiteCut || inj.Depth != 2 {
			t.Fatalf("panic value = %v, want *faultpoint.Injected at cut depth 2", ep.Value)
		}
		if !st.Poisoned() {
			t.Fatal("not poisoned")
		}
	})
}

func TestRunContextCancelAndDeadline(t *testing.T) {
	const X, Y, steps = 64, 64, 16
	opts := pochoir.Options{Grain: 1}
	t.Run("cancel", func(t *testing.T) {
		defer faultpoint.DisarmAll()
		// Stall every base case so the run is long enough to cancel.
		faultpoint.Arm(faultpoint.SiteBase, faultpoint.Spec{
			Kind: faultpoint.KindSleep, Depth: faultpoint.AnyDepth, Sleep: 10 * time.Millisecond,
		})
		st, _, kern := heatStencil(t, opts, X, Y, 19)
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(25 * time.Millisecond)
			cancel()
		}()
		if err := st.RunContext(ctx, steps, kern); !errors.Is(err, context.Canceled) {
			t.Fatalf("RunContext returned %v, want context.Canceled", err)
		}
		if !st.Poisoned() {
			t.Fatal("cancelled run did not poison")
		}
	})
	t.Run("deadline", func(t *testing.T) {
		defer faultpoint.DisarmAll()
		faultpoint.Arm(faultpoint.SiteBase, faultpoint.Spec{
			Kind: faultpoint.KindSleep, Depth: faultpoint.AnyDepth, Sleep: 10 * time.Millisecond,
		})
		st, _, kern := heatStencil(t, opts, X, Y, 23)
		ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
		defer cancel()
		if err := st.RunContext(ctx, steps, kern); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("RunContext returned %v, want context.DeadlineExceeded", err)
		}
		if !st.Poisoned() {
			t.Fatal("deadlined run did not poison")
		}
	})
	t.Run("dead-on-arrival", func(t *testing.T) {
		st, _, kern := heatStencil(t, opts, X, Y, 29)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := st.RunContext(ctx, steps, kern); !errors.Is(err, context.Canceled) {
			t.Fatalf("RunContext returned %v, want context.Canceled", err)
		}
		// Nothing ran: the stencil must stay clean.
		if st.Poisoned() {
			t.Fatal("dead-on-arrival context poisoned the stencil")
		}
		if err := st.Run(steps, kern); err != nil {
			t.Fatalf("Run after dead-on-arrival cancel: %v", err)
		}
	})
}

// TestCancellationLatency bounds how promptly a cancelled run returns: the
// walker checks the flag once per zoid, so the run must unwind within about
// one base-case duration. Every base case is stalled to a known 20ms by a
// sleep failpoint; the whole uncancelled run would take many seconds (the
// time-cut recursion serializes dozens of slabs even in parallel mode), and
// the test requires return well inside a second of the cancel: a few
// base-case durations, plus room for the stalls of a shared box (a 400ms
// bound was missed by 12ms there, in a stretch of 15% steal).
func TestCancellationLatency(t *testing.T) {
	const (
		X, Y      = 128, 128
		steps     = 64
		baseSleep = 20 * time.Millisecond
		cancelAt  = 30 * time.Millisecond
		bound     = time.Second
	)
	for _, rg := range regimes {
		t.Run(rg.name, func(t *testing.T) {
			defer faultpoint.DisarmAll()
			faultpoint.Arm(faultpoint.SiteBase, faultpoint.Spec{
				Kind: faultpoint.KindSleep, Depth: faultpoint.AnyDepth, Sleep: baseSleep,
			})
			opts := rg.opts
			// Fine cutoffs: many small base cases, so the latency bound
			// measures the walker's responsiveness, not one huge zoid.
			opts.TimeCutoff = 2
			opts.SpaceCutoff = []int{16, 16}
			st, _, kern := heatStencil(t, opts, X, Y, 31)
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(cancelAt)
				cancel()
			}()
			start := time.Now()
			err := st.RunContext(ctx, steps, kern)
			elapsed := time.Since(start)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("RunContext returned %v, want context.Canceled", err)
			}
			if elapsed > bound {
				t.Fatalf("cancelled run took %v, want < %v (≈ cancel point + one base-case duration)", elapsed, bound)
			}
		})
	}
}

func TestCheckpointRestoreRetryAfterFailure(t *testing.T) {
	const X, Y = 48, 48
	const half = 8
	for _, rg := range regimes {
		t.Run(rg.name, func(t *testing.T) {
			defer faultpoint.DisarmAll()
			st, _, kern := heatStencil(t, rg.opts, X, Y, 37)
			if err := st.Run(half, kern); err != nil {
				t.Fatalf("first half: %v", err)
			}
			cp, err := st.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if cp.StepsRun() != half {
				t.Fatalf("checkpoint cursor = %d, want %d", cp.StepsRun(), half)
			}

			// Second half dies partway through.
			faultpoint.Arm(faultpoint.SiteBase, faultpoint.Spec{
				Kind: faultpoint.KindPanic, Depth: faultpoint.AnyDepth, After: 1,
			})
			if err := st.Run(half, kern); err == nil {
				t.Fatal("fault-injected run returned nil")
			}
			faultpoint.DisarmAll()
			if err := st.Run(half, kern); !errors.Is(err, pochoir.ErrPoisoned) {
				t.Fatalf("poisoned Run returned %v, want ErrPoisoned", err)
			}

			// Rewind to the checkpoint and retry. That the retried values
			// equal an uninterrupted run's is the differential harness's
			// path (g) in internal/compiler.
			if err := st.Restore(cp); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if st.Poisoned() || st.StepsRun() != half {
				t.Fatalf("after Restore: poisoned=%v stepsRun=%d", st.Poisoned(), st.StepsRun())
			}
			if err := st.Run(half, kern); err != nil {
				t.Fatalf("retry: %v", err)
			}
			// The checkpoint is reusable: a second restore still works.
			if err := st.Restore(cp); err != nil {
				t.Fatalf("second Restore: %v", err)
			}
			if st.StepsRun() != half {
				t.Fatalf("second Restore cursor = %d", st.StepsRun())
			}
		})
	}
}

func TestRestoreRejectsMismatchedCheckpoint(t *testing.T) {
	stA, _, _ := heatStencil(t, pochoir.Options{}, 32, 32, 41)
	stB, _, _ := heatStencil(t, pochoir.Options{}, 48, 48, 43)
	cp, err := stA.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := stB.Restore(cp); err == nil {
		t.Fatal("Restore accepted a checkpoint with mismatched geometry")
	}
	if err := stB.Restore(nil); err == nil {
		t.Fatal("Restore accepted a nil checkpoint")
	}
}

func TestRegisterArrayRejectsDepthMismatch(t *testing.T) {
	sh := heat2DShape() // depth 1
	st := pochoir.New[float64](sh)
	deep := pochoir.MustArray[float64](sh.Depth()+1, 16, 16)
	if err := st.RegisterArray(deep); err == nil {
		t.Fatal("array with temporal depth 2 accepted by a depth-1 shape")
	} else if !strings.Contains(err.Error(), "depth") {
		t.Fatalf("unhelpful error: %v", err)
	}
	ok := pochoir.MustArray[float64](sh.Depth(), 16, 16)
	if err := st.RegisterArray(ok); err != nil {
		t.Fatalf("matching depth rejected: %v", err)
	}
}

func TestRegisterArrayRejectsDoubleRegistration(t *testing.T) {
	sh := heat2DShape()
	st := pochoir.New[float64](sh)
	u := pochoir.MustArray[float64](sh.Depth(), 16, 16)
	if err := st.RegisterArray(u); err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterArray(u); err == nil {
		t.Fatal("same *Array registered twice")
	}
	// A distinct array of the same geometry is still welcome.
	v := pochoir.MustArray[float64](sh.Depth(), 16, 16)
	if err := st.RegisterArray(v); err != nil {
		t.Fatalf("distinct array rejected: %v", err)
	}
}

func TestResetClearsLastStats(t *testing.T) {
	rec := pochoir.NewRecorder()
	st, _, kern := heatStencil(t, pochoir.Options{Telemetry: rec}, 32, 32, 47)
	if err := st.Run(4, kern); err != nil {
		t.Fatal(err)
	}
	if st.LastRunStats() == nil {
		t.Fatal("LastRunStats nil after an instrumented run")
	}
	st.Reset()
	if st.LastRunStats() != nil {
		t.Fatal("Reset left stale LastRunStats")
	}
}

func TestFailedRunTelemetryStaysConsistent(t *testing.T) {
	defer faultpoint.DisarmAll()
	rec, tr := pochoir.NewRecorder(), newTrace()
	faultpoint.Arm(faultpoint.SiteBase, faultpoint.Spec{
		Kind: faultpoint.KindPanic, Depth: faultpoint.AnyDepth, After: 4,
	})
	st, _, kern := heatStencil(t, pochoir.Options{
		Telemetry: rec, Trace: tr, Grain: 1, TimeCutoff: 2, SpaceCutoff: []int{16, 16},
	}, 64, 64, 53)
	if err := st.Run(16, kern); err == nil {
		t.Fatal("fault-injected run returned nil")
	}
	// The failed run still published a stats delta...
	stats := st.LastRunStats()
	if stats == nil {
		t.Fatal("failed run left no LastRunStats")
	}
	if stats.Bases == 0 {
		t.Fatal("failed run recorded no base cases despite After=4")
	}
	// ...and its walk in the trace is closed: every span the panic tore
	// through ended, inside the walk, which ended in error (walkSums checks
	// each span's interval against its walk's).
	snap := tr.Snapshot()
	sums := walkSums(t, snap)
	if len(sums) != 1 || sums[0].walk.EndNS == 0 || sums[0].walk.Status != "error" || sums[0].bases == 0 {
		t.Fatalf("failed run's walk %+v: want one closed in error, with base spans", sums)
	}
	aborted := 0
	for _, sp := range snap.Spans {
		if sp.Name != "walk" && sp.Status == "error" {
			aborted++
		}
	}
	if aborted == 0 {
		t.Fatal("no decomposition span was closed in error by the panic")
	}
	// The recorder survives for the next (recovered) run.
	faultpoint.DisarmAll()
	st.Reset()
	if err := st.Run(4, kern); err != nil {
		t.Fatalf("instrumented run after failure: %v", err)
	}
}
