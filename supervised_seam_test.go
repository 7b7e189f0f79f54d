package pochoir_test

// The supervisor's one seam: every decision reaches the sinks through the
// sink the root package composes behind SupervisePolicy.OnEvent, so the
// counters, the trace and the caller's hook all see exactly the report's
// log — a resumed run's resume decision included — and a cancelled run
// leaves nothing running behind it.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pochoir"
	"pochoir/internal/faultpoint"
	"pochoir/internal/flight"
	"pochoir/internal/metrics"
	"pochoir/internal/telemetry"
)

// seamClock is a Clock whose first `trips` watchdog contexts are already
// past their deadline, and whose Sleep calls onSleep (when set) before
// honouring ctx; it never sleeps for real.
type seamClock struct {
	trips   int
	onSleep func()
}

func (c *seamClock) Now() time.Time { return time.Now() }

func (c *seamClock) Sleep(ctx context.Context, d time.Duration) error {
	if c.onSleep != nil {
		c.onSleep()
	}
	return ctx.Err()
}

func (c *seamClock) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if c.trips > 0 {
		c.trips--
		return context.WithDeadline(ctx, time.Now().Add(-time.Second))
	}
	return context.WithCancel(ctx)
}

// TestResumeSupervisedEmitsResumeDecision: the resume decision is the first
// event of the resumed run's report and of its OnEvent stream, and it marks
// the run's trace under the supervised-run span.
func TestResumeSupervisedEmitsResumeDecision(t *testing.T) {
	const X, Y, steps, segSteps, seed = 24, 24, 8, 2, 5
	want := unfaultedHeat2D(t, pochoir.Options{}, X, Y, steps, seed)
	dir := t.TempDir()
	spillHeat2D(t, dir, X, Y, steps-segSteps, segSteps, seed)

	tr := pochoir.NewTracer(pochoir.TracerConfig{}).StartTrace("resume", pochoir.TraceContext{})
	st, u, kern := heatStencil(t, pochoir.Options{Trace: tr}, X, Y, seed+1000)
	var seen []pochoir.SupervisorEvent
	rep, err := st.ResumeSupervised(context.Background(), steps, kern, pochoir.SupervisePolicy{
		SegmentSteps: segSteps, SpillDir: dir, SpillKeep: 64,
		OnEvent: func(ev pochoir.SupervisorEvent) { seen = append(seen, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	mustMatch(t, u, steps, want)

	cursor := steps - 2*segSteps // the entry before the last spilled segment
	if len(rep.Events) == 0 || rep.Events[0].Kind != telemetry.SupResume || rep.Events[0].Attempt != cursor {
		t.Fatalf("report opens with %+v, want the resume from step %d", rep.Events, cursor)
	}
	if len(seen) != len(rep.Events) || seen[0] != rep.Events[0] {
		t.Fatalf("OnEvent saw %d events starting %+v; the report has %d starting %+v",
			len(seen), seen, len(rep.Events), rep.Events[0])
	}
	snap := tr.Snapshot()
	var run, resume *int
	for i, sp := range snap.Spans {
		switch sp.Name {
		case "supervised-run":
			run = &i
		case "resume":
			resume = &i
		}
	}
	if run == nil || resume == nil {
		t.Fatalf("trace has no supervised-run span with a resume mark: %+v", snap.Spans)
	}
	if sp := snap.Spans[*resume]; sp.Parent != snap.Spans[*run].ID || sp.Attr("cursor") == "" {
		t.Fatalf("resume mark %+v is not the supervised-run span's child with a cursor", sp)
	}
}

// TestSupervisedCountersMatchReport: over every kind of supervisor decision,
// each pochoir_sup_* and pochoir_resume_* counter equals the report field or
// the count of report events it stands for.
func TestSupervisedCountersMatchReport(t *testing.T) {
	const X, Y, steps, segSteps, seed = 24, 24, 8, 2, 37
	t.Setenv(flight.DirEnvVar, "off") // the failing scenarios' bundles stay in memory
	base := func(extra ...func(*pochoir.SupervisePolicy)) pochoir.SupervisePolicy {
		p := pochoir.SupervisePolicy{SegmentSteps: segSteps, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}
		for _, f := range extra {
			f(&p)
		}
		return p
	}
	supervise := func(t *testing.T, opts pochoir.Options, p pochoir.SupervisePolicy) (*pochoir.RunReport, error) {
		st, _, kern := heatStencil(t, opts, X, Y, seed)
		return st.RunSupervised(context.Background(), steps, kern, p)
	}
	resume := func(t *testing.T, opts pochoir.Options, prep func(t *testing.T, dir string)) (*pochoir.RunReport, error) {
		dir := t.TempDir()
		prep(t, dir)
		st, _, kern := heatStencil(t, opts, X, Y, seed+1000)
		return st.ResumeSupervised(context.Background(), steps, kern, base(func(p *pochoir.SupervisePolicy) {
			p.SpillDir, p.SpillKeep = dir, 64
		}))
	}
	damageNewest := func(t *testing.T, dir string) {
		ents, err := pochoir.ListSpillJournal(dir)
		if err != nil || len(ents) < 2 {
			t.Fatalf("journal: %d entries, %v", len(ents), err)
		}
		if err := os.Truncate(ents[len(ents)-1].Path, 7); err != nil {
			t.Fatal(err)
		}
	}
	panicOnce := func() {
		faultpoint.Arm(faultpoint.SiteBase, faultpoint.Spec{Kind: faultpoint.KindPanic, Depth: faultpoint.AnyDepth, Times: 1})
	}

	scenarios := []struct {
		name string
		run  func(t *testing.T, opts pochoir.Options) (*pochoir.RunReport, error)
		fail bool     // the run is expected to end in an error
		hot  []string // counters the scenario must move
	}{
		{"retry", func(t *testing.T, opts pochoir.Options) (*pochoir.RunReport, error) {
			panicOnce()
			return supervise(t, opts, base())
		}, false, []string{"retries", "restores", "segments_failed", "backoff_ns"}},
		{"degrade", func(t *testing.T, opts pochoir.Options) (*pochoir.RunReport, error) {
			faultpoint.Arm(faultpoint.SiteCut, faultpoint.Spec{Kind: faultpoint.KindPanic, Depth: faultpoint.AnyDepth})
			opts.TimeCutoff, opts.SpaceCutoff = 1, []int{8, 8}
			return supervise(t, opts, base(func(p *pochoir.SupervisePolicy) { p.MaxAttempts, p.DegradeAfter = 6, 2 }))
		}, false, []string{"degradations", "retries"}},
		{"watchdog", func(t *testing.T, opts pochoir.Options) (*pochoir.RunReport, error) {
			return supervise(t, opts, base(func(p *pochoir.SupervisePolicy) {
				p.SegmentTimeout, p.Clock = time.Hour, &seamClock{trips: 1}
			}))
		}, false, []string{"watchdog_trips", "retries"}},
		{"verify-mismatch", func(t *testing.T, opts pochoir.Options) (*pochoir.RunReport, error) {
			// The tt==1 sweep is corrupted once, so the shadow recompute
			// and the retry see a clean kernel.
			st, u, _ := heatStencil(t, opts, X, Y, seed)
			var corrupted atomic.Int64
			kern := pochoir.K2(func(tt, x, y int) {
				c := u.Get(tt, x, y)
				v := c + cx*(u.Get(tt, x+1, y)-2*c+u.Get(tt, x-1, y)) + cy*(u.Get(tt, x, y+1)-2*c+u.Get(tt, x, y-1))
				if tt == 1 && corrupted.Add(1) <= X*Y {
					v *= 2
				}
				u.Set(tt+1, v, x, y)
			})
			return st.RunSupervised(context.Background(), steps, kern, base(func(p *pochoir.SupervisePolicy) {
				p.Verify = pochoir.VerifyPolicy{Enabled: true}
			}))
		}, false, []string{"verify_mismatch", "verify_ok", "retries"}},
		{"spill-ok", func(t *testing.T, opts pochoir.Options) (*pochoir.RunReport, error) {
			return supervise(t, opts, base(func(p *pochoir.SupervisePolicy) { p.SpillDir = t.TempDir() }))
		}, false, []string{"spills", "spill_bytes"}},
		{"spill-error", func(t *testing.T, opts pochoir.Options) (*pochoir.RunReport, error) {
			dir := t.TempDir()
			return supervise(t, opts, base(func(p *pochoir.SupervisePolicy) {
				p.SpillDir = dir
				p.OnEvent = func(ev pochoir.SupervisorEvent) {
					if ev.Kind == telemetry.SupCheckpoint && ev.Segment == 1 {
						os.RemoveAll(dir) // every later spill fails
					}
				}
			}))
		}, false, []string{"spills", "spill_errors"}},
		{"cancel-in-backoff", func(t *testing.T, opts pochoir.Options) (*pochoir.RunReport, error) {
			panicOnce()
			st, _, kern := heatStencil(t, opts, X, Y, seed)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			return st.RunSupervised(ctx, steps, kern, base(func(p *pochoir.SupervisePolicy) {
				p.Clock = &seamClock{onSleep: cancel}
			}))
		}, true, []string{"giveups", "backoff_ns", "restores"}},
		{"checkpoint-giveup", func(t *testing.T, opts pochoir.Options) (*pochoir.RunReport, error) {
			st, _, kern := heatStencil(t, opts, X, Y, seed)
			panicOnce()
			if err := st.Run(steps, kern); err == nil {
				t.Fatal("the faulted plain run did not fail")
			}
			// The poisoned stencil refuses the first segment's checkpoint.
			return st.RunSupervised(context.Background(), steps, kern, base())
		}, true, []string{"giveups"}},
		{"resume-restored", func(t *testing.T, opts pochoir.Options) (*pochoir.RunReport, error) {
			return resume(t, opts, func(t *testing.T, dir string) { spillHeat2D(t, dir, X, Y, steps-segSteps, segSteps, seed) })
		}, false, []string{"resume_restored", "spills"}},
		{"resume-cold", func(t *testing.T, opts pochoir.Options) (*pochoir.RunReport, error) {
			return resume(t, opts, func(*testing.T, string) {})
		}, false, []string{"resume_cold"}},
		{"resume-corrupt", func(t *testing.T, opts pochoir.Options) (*pochoir.RunReport, error) {
			return resume(t, opts, func(t *testing.T, dir string) {
				spillHeat2D(t, dir, X, Y, steps-segSteps, segSteps, seed)
				damageNewest(t, dir)
			})
		}, false, []string{"resume_restored", "resume_corrupt"}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			defer faultpoint.DisarmAll()
			reg := pochoir.NewMetrics()
			rep, err := sc.run(t, pochoir.Options{Metrics: reg})
			faultpoint.DisarmAll()
			if (err != nil) != sc.fail || rep == nil {
				t.Fatalf("run returned %v (report %+v), want failure %v", err, rep, sc.fail)
			}
			kinds := map[telemetry.SupKind]int64{}
			var watchdog, spillNS, corrupt, cold int64
			for _, ev := range rep.Events {
				kinds[ev.Kind]++
				switch {
				case ev.Kind == telemetry.SupSegmentFail && ev.Delay > 0:
					watchdog++
				case ev.Kind == telemetry.SupSpill && ev.Err == "":
					spillNS += ev.Delay.Nanoseconds()
				case ev.Kind == telemetry.SupResume:
					corrupt += ev.Count
					if ev.Err != "" {
						cold++
					}
				}
			}
			var failures, giveups int64
			for _, seg := range rep.Segments {
				failures += int64(len(seg.Failures))
			}
			if rep.Err != nil {
				giveups = 1
			}
			sm := metrics.NewSupervisorMetrics(reg)
			for _, c := range []struct {
				name string
				ctr  *metrics.Counter
				want int64
			}{
				{"segments_done", sm.SegmentsDone, kinds[telemetry.SupSegmentDone]},
				{"segments_failed", sm.SegmentsFailed, failures},
				{"retries", sm.Retries, int64(rep.Retries)},
				{"degradations", sm.Degradations, int64(rep.Degradations)},
				{"watchdog_trips", sm.WatchdogTrips, watchdog},
				{"verify_ok", sm.VerifyOK, int64(rep.Verified)},
				{"verify_mismatch", sm.VerifyMismatch, int64(rep.VerifyMismatches)},
				{"checkpoints", sm.Checkpoints, int64(rep.Checkpoints)},
				{"restores", sm.Restores, int64(rep.Restores)},
				{"giveups", sm.GiveUps, giveups},
				{"backoff_ns", sm.BackoffNS, rep.BackoffTotal.Nanoseconds()},
				{"spills", sm.Spills, int64(rep.Spills)},
				{"spill_errors", sm.SpillErrors, int64(rep.SpillErrors)},
				{"spill_bytes", sm.SpillBytes, rep.SpillBytes},
				{"spill_ns", sm.SpillNS, spillNS},
				{"resume_restored", sm.ResumeRestored, kinds[telemetry.SupResume] - cold},
				{"resume_cold", sm.ResumeCold, cold},
				{"resume_corrupt", sm.ResumeCorrupt, corrupt},
			} {
				if got := c.ctr.Value(); got != c.want {
					t.Errorf("%s = %d, report says %d", c.name, got, c.want)
				}
				for _, h := range sc.hot {
					if h == c.name && c.want == 0 {
						t.Errorf("%s: scenario did not exercise it", c.name)
					}
				}
			}
		})
	}
}

// TestSupervisedCancelLeaksNoGoroutines cancels a supervised run once inside
// a segment and once inside a backoff, and requires every goroutine the run
// started to be gone soon after it returns.
func TestSupervisedCancelLeaksNoGoroutines(t *testing.T) {
	const X, Y, steps = 64, 64, 16
	t.Setenv(flight.DirEnvVar, "off")
	cases := map[string]func(st *pochoir.Stencil[float64], kern pochoir.Kernel) error{
		"in-segment": func(st *pochoir.Stencil[float64], kern pochoir.Kernel) error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var calls atomic.Int64
			cancelling := pochoir.Kernel(func(tt int, x []int) {
				if calls.Add(1) == 1000 {
					cancel() // mid-sweep, with spawned subzoids in flight
				}
				kern(tt, x)
			})
			_, err := st.RunSupervised(ctx, steps, cancelling, pochoir.SupervisePolicy{SegmentSteps: 4})
			if !errors.Is(err, context.Canceled) {
				return fmt.Errorf("run returned %v, want context.Canceled", err)
			}
			return nil
		},
		"in-backoff": func(st *pochoir.Stencil[float64], kern pochoir.Kernel) error {
			faultpoint.Arm(faultpoint.SiteBase, faultpoint.Spec{Kind: faultpoint.KindPanic, Depth: faultpoint.AnyDepth, Times: 1})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			rep, err := st.RunSupervised(ctx, steps, kern, pochoir.SupervisePolicy{
				SegmentSteps: 4, BaseDelay: time.Hour, MaxDelay: time.Hour,
				OnEvent: func(ev pochoir.SupervisorEvent) {
					if ev.Kind == telemetry.SupBackoff {
						time.AfterFunc(10*time.Millisecond, cancel) // lands mid-sleep
					}
				},
			})
			if err == nil || rep.Retries != 0 || rep.Restores != 1 {
				return fmt.Errorf("run returned %v after %d retries and %d restores, want a failure after one restore and no retry",
					err, rep.Retries, rep.Restores)
			}
			return nil
		},
	}
	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			defer faultpoint.DisarmAll()
			st, _, kern := heatStencil(t, pochoir.Options{Grain: 1, TimeCutoff: 2, SpaceCutoff: []int{16, 16}}, X, Y, 3)
			start := runtime.NumGoroutine()
			if err := run(st, kern); err != nil {
				t.Fatal(err)
			}
			faultpoint.DisarmAll()
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > start {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines after the run, %d before:\n%s",
						runtime.NumGoroutine(), start, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
