package pochoir_test

// Shared-infrastructure supervision suite: many concurrent RunSupervised
// jobs — the serving gateway's steady state — funneled through ONE metrics
// registry and the process's one flight recorder, under -race. The
// instruments are designed for exactly this (atomic counters, lock-free
// seqlock rings, per-run progress entries keyed by label), and this test is
// the executable proof: no data race, no cross-talk between jobs' results, a
// parseable exposition afterwards, and a deadline-cancelled job failing
// cleanly while its neighbours finish.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pochoir"
)

func TestSupervisedConcurrentSharedRegistry(t *testing.T) {
	const X, Y, steps = 48, 48, 24
	reg := pochoir.NewMetrics()
	fr := freshDefaultRecorder(t, 4096)

	// Reference checksums, one per seed, computed serially and unshared.
	want := make(map[int64][]float64)
	for seed := int64(0); seed < 4; seed++ {
		want[seed] = unfaultedHeat2D(t, pochoir.Options{}, X, Y, steps, seed)
	}

	var wg sync.WaitGroup
	errs := make([]error, 5)
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == 4 {
				// The fifth job is cancelled by a deadline it cannot meet;
				// it must fail with context.DeadlineExceeded and must not
				// disturb the other four.
				st, _, kern := heatStencil(t, pochoir.Options{
					Metrics:       reg,
					ProgressLabel: "job-deadline",
				}, 128, 128, 99)
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
				defer cancel()
				_, err := st.RunSupervised(ctx, 20000, kern, pochoir.SupervisePolicy{SegmentSteps: 4})
				if err == nil {
					errs[i] = errors.New("20000-step run beat a 5ms deadline")
				} else if !errors.Is(err, context.DeadlineExceeded) {
					errs[i] = fmt.Errorf("deadline job failed with %v, want DeadlineExceeded", err)
				}
				return
			}
			seed := int64(i)
			st, u, kern := heatStencil(t, pochoir.Options{
				Metrics:       reg,
				ProgressLabel: fmt.Sprintf("job-%d", i),
			}, X, Y, seed)
			rep, err := st.RunSupervised(context.Background(), steps, kern,
				pochoir.SupervisePolicy{SegmentSteps: 8})
			if err != nil {
				errs[i] = err
				return
			}
			if rep.StepsDone != steps {
				errs[i] = fmt.Errorf("job %d: %d steps done, want %d", i, rep.StepsDone, steps)
				return
			}
			got := make([]float64, X*Y)
			if err := u.CopyOut(steps, got); err != nil {
				errs[i] = err
				return
			}
			for k := range got {
				if got[k] != want[seed][k] {
					errs[i] = fmt.Errorf("job %d diverged from its serial reference at %d", i, k)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("job %d: %v", i, err)
		}
	}

	// The shared registry survived five concurrent writers: the exposition
	// still parses and each job's progress entry is distinguishable by its
	// per-job label.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if err := pochoir.CheckMetricsExposition(buf.Bytes()); err != nil {
		t.Fatalf("shared exposition corrupted: %v", err)
	}
	seen := map[string]bool{}
	for _, p := range reg.ProgressSnapshot() {
		seen[p.Label] = true
	}
	for _, label := range []string{"job-0", "job-1", "job-2", "job-3", "job-deadline"} {
		if !seen[label] {
			t.Errorf("no progress entry labelled %q in the shared registry", label)
		}
	}
	if fr.TotalRecorded() == 0 {
		t.Fatal("shared flight recorder saw no events")
	}
}
