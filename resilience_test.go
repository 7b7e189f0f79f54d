package pochoir_test

// Supervised-resilience suite: the RunSupervised supervisor against the
// fault-injection harness — panics at both walker sites, watchdog
// deadlines, late-run faults, the engine degradation ladder, and shadow
// verification. Every recovered run must be bit-identical to an unfaulted
// one: each point update is a pure function of older time slots, so TRAP,
// STRAP, and LOOPS produce bitwise-equal floating-point results and a
// retried segment recomputes exactly what the faulted attempt would have.

import (
	"context"
	"math"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"pochoir"
	"pochoir/internal/faultpoint"
)

// unfaultedHeat2D computes the bit-exact expected grid with a plain Run on
// a fresh stencil in the same regime.
func unfaultedHeat2D(t *testing.T, opts pochoir.Options, X, Y, steps int, seed int64) []float64 {
	t.Helper()
	faultpoint.DisarmAll()
	st, u, kern := heatStencil(t, opts, X, Y, seed)
	if err := st.Run(steps, kern); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, X*Y)
	if err := u.CopyOut(steps, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// mustMatch asserts got is bitwise-identical to want.
func mustMatch(t *testing.T, u *pochoir.Array[float64], steps int, want []float64) {
	t.Helper()
	got := make([]float64, len(want))
	if err := u.CopyOut(steps, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recovered run diverged at %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

// TestRunSupervisedFaultMatrix drives supervised runs through the injected
// failure modes of the hardened-execution harness and requires every one to
// complete bit-identically to an unfaulted run.
func TestRunSupervisedFaultMatrix(t *testing.T) {
	const X, Y, steps, seed = 48, 48, 12, 17
	scenarios := []struct {
		name string
		opts pochoir.Options
		pol  pochoir.SupervisePolicy
		arm  func()
	}{
		{
			// An engine panic in the decomposition: one cut-site fire, so
			// the first retry of the failed segment succeeds. The cutoffs
			// force real cuts inside each 4-step segment — under the
			// defaults a 48x48x4 segment is a single base case and the
			// cut site is never reached.
			name: "panic-at-cut-site",
			opts: pochoir.Options{Grain: 1, TimeCutoff: 2, SpaceCutoff: []int{16, 16}},
			pol:  pochoir.SupervisePolicy{SegmentSteps: 4, BaseDelay: time.Microsecond},
			arm: func() {
				faultpoint.Arm(faultpoint.SiteCut,
					faultpoint.Spec{Kind: faultpoint.KindPanic, Depth: faultpoint.AnyDepth, After: 2, Times: 1})
			},
		},
		{
			// A kernel-adjacent panic at a base case, mid-run. The small
			// cutoffs yield many base cases per segment so After:5 lands
			// inside a segment.
			name: "panic-at-base-site",
			opts: pochoir.Options{Grain: 1, TimeCutoff: 2, SpaceCutoff: []int{16, 16}},
			pol:  pochoir.SupervisePolicy{SegmentSteps: 4, BaseDelay: time.Microsecond},
			arm: func() {
				faultpoint.Arm(faultpoint.SiteBase,
					faultpoint.Spec{Kind: faultpoint.KindPanic, Depth: faultpoint.AnyDepth, After: 5, Times: 1})
			},
		},
		{
			// Stalled base cases blow the per-segment watchdog; the stall
			// budget (3 fires) is consumed on the first attempt, so the
			// retry runs at full speed.
			name: "segment-timeout",
			opts: pochoir.Options{Serial: true, TimeCutoff: 1, SpaceCutoff: []int{16, 16}},
			pol: pochoir.SupervisePolicy{
				SegmentSteps:   4,
				SegmentTimeout: 50 * time.Millisecond,
				BaseDelay:      time.Microsecond,
				MaxAttempts:    5,
			},
			arm: func() {
				faultpoint.Arm(faultpoint.SiteBase,
					faultpoint.Spec{Kind: faultpoint.KindSleep, Depth: faultpoint.AnyDepth,
						Sleep: 20 * time.Millisecond, Times: 3})
			},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			defer faultpoint.DisarmAll()
			want := unfaultedHeat2D(t, sc.opts, X, Y, steps, seed)
			st, u, kern := heatStencil(t, sc.opts, X, Y, seed)
			sc.arm()
			rep, err := st.RunSupervised(context.Background(), steps, kern, sc.pol)
			faultpoint.DisarmAll()
			if err != nil {
				t.Fatalf("supervised run failed: %v (report %+v)", err, rep)
			}
			if rep.Retries < 1 {
				t.Fatalf("fault did not trigger a retry: %+v", rep)
			}
			if rep.StepsDone != steps || st.StepsRun() != steps {
				t.Fatalf("StepsDone = %d, want %d", rep.StepsDone, steps)
			}
			mustMatch(t, u, steps, want)
		})
	}
}

// TestRunSupervisedFaultAtEndOfRun is the acceptance scenario: a kernel
// panic beyond 90% progress costs one segment retry, not the run.
func TestRunSupervisedFaultAtEndOfRun(t *testing.T) {
	const X, Y, steps, seed = 48, 48, 20, 23
	opts := pochoir.Options{Grain: 1}
	want := unfaultedHeat2D(t, opts, X, Y, steps, seed)

	st, u, _ := heatStencil(t, opts, X, Y, seed)
	var tripped atomic.Bool
	kern := pochoir.K2(func(tt, x, y int) {
		if tt == steps-1 && tripped.CompareAndSwap(false, true) {
			panic("blown gasket at 95% progress")
		}
		c := u.Get(tt, x, y)
		u.Set(tt+1, c+
			cx*(u.Get(tt, x+1, y)-2*c+u.Get(tt, x-1, y))+
			cy*(u.Get(tt, x, y+1)-2*c+u.Get(tt, x, y-1)), x, y)
	})
	rep, err := st.RunSupervised(context.Background(), steps, kern, pochoir.SupervisePolicy{
		SegmentSteps: 2, // 10 segments; the fault lands in the last one
		BaseDelay:    time.Microsecond,
	})
	if err != nil {
		t.Fatalf("supervised run failed: %v", err)
	}
	if len(rep.Segments) != 10 || rep.Retries != 1 {
		t.Fatalf("segments = %d, retries = %d, want 10 and 1", len(rep.Segments), rep.Retries)
	}
	for i, seg := range rep.Segments[:9] {
		if seg.Attempts != 1 {
			t.Fatalf("segment %d re-ran (%d attempts); only the last may retry", i, seg.Attempts)
		}
	}
	if last := rep.Segments[9]; last.Attempts != 2 || len(last.Failures) != 1 {
		t.Fatalf("last segment = %+v, want exactly one failed attempt", last)
	}
	mustMatch(t, u, steps, want)
}

// TestRunSupervisedDegradesToLoops arms an unlimited cut-site panic: both
// recursive engines are broken, and only the LOOPS rung — which never
// decomposes — completes the run. Also the report acceptance test: every
// decision must be in its log, typed.
func TestRunSupervisedDegradesToLoops(t *testing.T) {
	defer faultpoint.DisarmAll()
	const X, Y, steps, seed = 40, 40, 8, 31
	opts := pochoir.Options{Grain: 1}
	want := unfaultedHeat2D(t, opts, X, Y, steps, seed)

	st, u, kern := heatStencil(t, opts, X, Y, seed)
	faultpoint.Arm(faultpoint.SiteCut,
		faultpoint.Spec{Kind: faultpoint.KindPanic, Depth: faultpoint.AnyDepth})
	rep, err := st.RunSupervised(context.Background(), steps, kern, pochoir.SupervisePolicy{
		MaxAttempts:  6,
		DegradeAfter: 2,
		BaseDelay:    time.Microsecond,
	})
	faultpoint.DisarmAll()
	if err != nil {
		t.Fatalf("supervised run failed: %v (report %+v)", err, rep)
	}
	if rep.FinalEngine != pochoir.EngineLoops || rep.Degradations != 2 {
		t.Fatalf("final engine %v after %d degradations, want LOOPS after 2", rep.FinalEngine, rep.Degradations)
	}
	if rep.Segments[0].Attempts != 5 || rep.Retries != 4 {
		t.Fatalf("attempts = %d, retries = %d, want 5 and 4", rep.Segments[0].Attempts, rep.Retries)
	}
	mustMatch(t, u, steps, want)

	// The decision log reached the report, with the checkpoint, failure,
	// restore, backoff, and degradation steps typed.
	counts := map[string]int{}
	for _, ev := range rep.Events {
		counts[ev.Kind.String()]++
	}
	for kind, n := range map[string]int{
		"segment-start": 1, "checkpoint": 1, "segment-fail": 4,
		"restore": 4, "retry-backoff": 4, "degrade": 2, "segment-done": 1,
	} {
		if counts[kind] != n {
			t.Fatalf("event counts = %v, want %d %s", counts, n, kind)
		}
	}
	if st.Poisoned() {
		t.Fatal("stencil left poisoned after a recovered run")
	}
}

// TestLoopsEngineMatchesRecursive: the LOOPS rung is selectable as a plain
// Options.Algorithm and produces bit-identical results.
func TestLoopsEngineMatchesRecursive(t *testing.T) {
	const X, Y, steps, seed = 37, 29, 15, 5
	want := unfaultedHeat2D(t, pochoir.Options{}, X, Y, steps, seed)
	st, u, kern := heatStencil(t, pochoir.Options{Algorithm: 2, Serial: true}, X, Y, seed)
	if err := st.Run(steps, kern); err != nil {
		t.Fatal(err)
	}
	mustMatch(t, u, steps, want)
}

// TestRunSupervisedShadowVerifyCatchesCorruption: a kernel that silently
// corrupts one full sweep — no panic, no error — is caught by the shadow
// recompute, rolled back, and retried clean.
func TestRunSupervisedShadowVerifyCatchesCorruption(t *testing.T) {
	const X, Y, steps, seed = 32, 32, 8, 13
	opts := pochoir.Options{Serial: true}
	want := unfaultedHeat2D(t, opts, X, Y, steps, seed)

	st, u, _ := heatStencil(t, opts, X, Y, seed)
	// Corrupt every point of the tt==1 sweep, exactly once: the counter
	// expires after X*Y applications, so the shadow recompute (and the
	// retry) see a clean kernel.
	var corrupted atomic.Int64
	kern := pochoir.K2(func(tt, x, y int) {
		c := u.Get(tt, x, y)
		v := c +
			cx*(u.Get(tt, x+1, y)-2*c+u.Get(tt, x-1, y)) +
			cy*(u.Get(tt, x, y+1)-2*c+u.Get(tt, x, y-1))
		if tt == 1 && corrupted.Add(1) <= X*Y {
			v *= 2 // silent corruption: in-range, plausible, wrong
		}
		u.Set(tt+1, v, x, y)
	})
	rep, err := st.RunSupervised(context.Background(), steps, kern, pochoir.SupervisePolicy{
		SegmentSteps: 4,
		BaseDelay:    time.Microsecond,
		Verify:       pochoir.VerifyPolicy{Enabled: true},
	})
	if err != nil {
		t.Fatalf("supervised run failed: %v (report %+v)", err, rep)
	}
	if rep.VerifyMismatches != 1 {
		t.Fatalf("VerifyMismatches = %d, want 1", rep.VerifyMismatches)
	}
	if rep.Verified == 0 || rep.Retries != 1 {
		t.Fatalf("report = %+v, want a passed verify and one retry", rep)
	}
	if !rep.Segments[0].VerifyMismatch {
		t.Fatalf("segment 0 = %+v, want the mismatch recorded", rep.Segments[0])
	}
	mustMatch(t, u, steps, want)
}

// TestRunSupervisedRunsAttachedClones: a stencil carrying compiled clones
// runs its segments on them on every rung of the ladder, while shadow
// verification keeps re-executing the point kernel — so clones that
// silently disagree with it (here: one plane scaled by 2, once) are caught
// by the cross-check, rolled back and retried.
func TestRunSupervisedRunsAttachedClones(t *testing.T) {
	const X, Y, steps, seed = 32, 32, 8, 13
	opts := pochoir.Options{Serial: true}
	want := unfaultedHeat2D(t, opts, X, Y, steps, seed)

	st, u, kern := heatStencil(t, opts, X, Y, seed)
	generic := st.GenericBase(kern)
	var bases, pointCalls, corrupted atomic.Int64
	clone := func(z pochoir.Zoid) {
		bases.Add(1)
		generic(z)
		if corrupted.CompareAndSwap(0, 1) {
			// The first base case leaves its last plane scaled, the way a
			// miscompiled clone would: no panic, no error, plausible values.
			last := z.T1 - 1
			for x := 0; x < X; x++ {
				for y := 0; y < Y; y++ {
					u.Set(last, 2*u.Get(last, x, y), x, y)
				}
			}
		}
	}
	st.AttachBaseKernels(pochoir.BaseKernels{Interior: clone, Boundary: clone})
	counted := pochoir.Kernel(func(tt int, x []int) {
		pointCalls.Add(1)
		kern(tt, x)
	})
	rep, err := st.RunSupervised(context.Background(), steps, counted, pochoir.SupervisePolicy{
		SegmentSteps: 4,
		BaseDelay:    time.Microsecond,
		Verify:       pochoir.VerifyPolicy{Enabled: true},
	})
	if err != nil {
		t.Fatalf("supervised run failed: %v (report %+v)", err, rep)
	}
	if bases.Load() == 0 {
		t.Fatal("segments did not run the attached clones")
	}
	if pointCalls.Load() == 0 || pointCalls.Load() >= int64(X*Y*steps) {
		t.Fatalf("point kernel applied %d times: want only the shadow cones, not the %d-point run", pointCalls.Load(), X*Y*steps)
	}
	if rep.VerifyMismatches != 1 || rep.Retries != 1 {
		t.Fatalf("report = %+v, want the corrupt clone caught once and retried", rep)
	}
	mustMatch(t, u, steps, want)
}

// TestShadowVerifyCatchesNonFinite: a clone that leaves NaN, or an infinity,
// where the point kernel computes a finite value fails shadow verification
// — NaN at zero tolerance, the infinity under a relative tolerance that the
// infinity itself would satisfy — while a point kernel whose own answer is
// NaN verifies against a clone that agrees with it.
func TestShadowVerifyCatchesNonFinite(t *testing.T) {
	const X, Y, steps, seed = 32, 32, 8, 13
	for _, c := range []struct {
		name      string
		bad       float64
		tol       float64
		nanKernel bool
		mismatch  int
	}{
		{"nan-in-clone", math.NaN(), 0, false, 1},
		{"inf-in-clone", math.Inf(1), 1e-9, false, 1},
		{"nan-on-both-sides", 0, 0, true, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			st, u, kern := heatStencil(t, pochoir.Options{Serial: true}, X, Y, seed)
			if c.nanKernel {
				kern = pochoir.K2(func(tt, x, y int) { u.Set(tt+1, math.NaN(), x, y) })
			}
			generic := st.GenericBase(kern)
			var corrupted atomic.Bool
			clone := func(z pochoir.Zoid) {
				generic(z)
				if !c.nanKernel && corrupted.CompareAndSwap(false, true) {
					for x := 0; x < X; x++ {
						for y := 0; y < Y; y++ {
							u.Set(z.T1-1, c.bad, x, y)
						}
					}
				}
			}
			st.AttachBaseKernels(pochoir.BaseKernels{Interior: clone, Boundary: clone})
			rep, err := st.RunSupervised(context.Background(), steps, kern, pochoir.SupervisePolicy{
				SegmentSteps: 4,
				BaseDelay:    time.Microsecond,
				Verify:       pochoir.VerifyPolicy{Enabled: true, BoxSide: 8, Tolerance: c.tol},
			})
			if err != nil {
				t.Fatalf("supervised run failed: %v (report %+v)", err, rep)
			}
			if rep.VerifyMismatches != c.mismatch || rep.Retries != c.mismatch || rep.Verified == 0 {
				t.Fatalf("report = %+v, want %d mismatch(es) and retries", rep, c.mismatch)
			}
			if !c.nanKernel {
				mustMatch(t, u, steps, unfaultedHeat2D(t, pochoir.Options{Serial: true}, X, Y, steps, seed))
			}
		})
	}
}

// TestRunSupervisedHappyPathIsPlainRun: with checkpointing disabled and no
// faults, the supervisor adds bookkeeping only — same result, one segment,
// no checkpoint copies.
func TestRunSupervisedHappyPathIsPlainRun(t *testing.T) {
	const X, Y, steps, seed = 48, 48, 10, 3
	want := unfaultedHeat2D(t, pochoir.Options{}, X, Y, steps, seed)
	st, u, kern := heatStencil(t, pochoir.Options{}, X, Y, seed)
	rep, err := st.RunSupervised(context.Background(), steps, kern,
		pochoir.SupervisePolicy{NoCheckpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checkpoints != 0 || rep.Attempts != 1 || len(rep.Segments) != 1 {
		t.Fatalf("report = %+v, want one uncheckpointed attempt", rep)
	}
	mustMatch(t, u, steps, want)
}

// TestSupervisedSoakEnvFaults is the CI soak: when POCHOIR_FAULTPOINTS is
// set (e.g. walker/base=p:0.01), a supervised run must survive whatever the
// environment throws and still produce the bit-exact result. Skipped when
// the variable is empty.
func TestSupervisedSoakEnvFaults(t *testing.T) {
	env := os.Getenv(faultpoint.EnvVar)
	if env == "" {
		t.Skipf("%s not set", faultpoint.EnvVar)
	}
	defer faultpoint.DisarmAll()
	const X, Y, steps, seed = 64, 64, 24, 41
	// Small cutoffs force real decomposition so probabilistic faults at the
	// cut and base sites get many visits per segment to fire at.
	opts := pochoir.Options{Grain: 1, TimeCutoff: 2, SpaceCutoff: []int{16, 16}}
	want := unfaultedHeat2D(t, opts, X, Y, steps, seed) // disarms first
	st, u, kern := heatStencil(t, opts, X, Y, seed)
	if err := faultpoint.ArmFromSpec(env); err != nil {
		t.Fatal(err)
	}
	rep, err := st.RunSupervised(context.Background(), steps, kern, pochoir.SupervisePolicy{
		SegmentSteps: 2,
		MaxAttempts:  10,
		BaseDelay:    time.Microsecond,
		MaxDelay:     time.Millisecond,
	})
	faultpoint.DisarmAll()
	if err != nil {
		t.Fatalf("soak run failed: %v (report %+v)", err, rep)
	}
	t.Logf("soak: %d segments, %d retries, %d degradations, final engine %v",
		len(rep.Segments), rep.Retries, rep.Degradations, rep.FinalEngine)
	mustMatch(t, u, steps, want)
}
