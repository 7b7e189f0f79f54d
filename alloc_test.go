package pochoir_test

import (
	"context"
	"os"
	"runtime"
	"testing"

	"pochoir"
	"pochoir/internal/compiler"
)

// allocatedBytes returns the bytes the process allocates while f runs.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestClosureKernelRunAllocations: the Phase-1 path costs arithmetic, not
// garbage. A closure kernel over the checked accessors makes six Get/Set
// calls per point, and none of them may allocate.
func TestClosureKernelRunAllocations(t *testing.T) {
	const X, Y, steps = 128, 128, 8
	st, _, kern := heatStencil(t, pochoir.Options{}, X, Y, 5)
	allocs := testing.AllocsPerRun(3, func() {
		if err := st.Run(steps, kern); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per Run of %d points", allocs, X*Y*steps)
	if per := allocs / (X * Y * steps); per >= 0.01 {
		t.Fatalf("Run made %.0f allocations, %.3f per point; want < 0.01", allocs, per)
	}
}

// TestSupervisedCheckpointStorageAllocatedOnce: a supervised run owns one
// checkpoint of the live slots and overwrites it every segment, so sixteen
// one-step segments allocate about one checkpoint's worth of bytes, not
// sixteen of every slot.
func TestSupervisedCheckpointStorageAllocatedOnce(t *testing.T) {
	const X, Y, steps = 512, 512, 16
	st, _, kern := heatStencil(t, pochoir.Options{}, X, Y, 5)
	depth := st.Shape().Depth()
	var rep *pochoir.RunReport
	var err error
	got := allocatedBytes(func() {
		rep, err = st.RunSupervised(context.Background(), steps, kern, pochoir.SupervisePolicy{SegmentSteps: 1})
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checkpoints != steps {
		t.Fatalf("%d checkpoints, want %d", rep.Checkpoints, steps)
	}
	t.Logf("%d one-step segments allocated %d bytes; one checkpoint is %d", steps, got, depth*X*Y*8)
	if limit := uint64(1.5 * float64(depth*X*Y*8)); got > limit {
		t.Fatalf("RunSupervised over %d one-step segments allocated %d bytes, want <= %d (1.5 checkpoints of %d live slots)",
			steps, got, limit, depth)
	}
}

// servedJobRuns gives each run of TestServedJobCheckpointIsOneSlot a grid
// size no earlier run has released to the grid free list. The size is odd,
// so no two-slot array of the other tests has a checkpoint's length.
var servedJobRuns int

// TestServedJobCheckpointIsOneSlot: a served-style job — a DSL heat
// instance under RunSupervised with the default policy, as pochoird runs it
// — allocates one checkpoint of its one live slot, about 8 MiB at 1025²,
// where a copy of both slots took 16. The grid grows on every run, so the
// checkpoint's storage cannot come from the grid free list.
func TestServedJobCheckpointIsOneSlot(t *testing.T) {
	const steps = 2
	N := 1025 + 2*servedJobRuns
	servedJobRuns++
	src, err := os.ReadFile("examples/dsl/specs/heat2d.pch")
	if err != nil {
		t.Fatal(err)
	}
	checked, err := compiler.CompileSource(string(src))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := checked.NewInstance(N, N)
	if err != nil {
		t.Fatal(err)
	}
	inst.Arrays["u"].Fill(0, 1)
	var rep *pochoir.RunReport
	got := allocatedBytes(func() {
		rep, err = inst.Stencil.RunSupervised(context.Background(), steps, inst.Kernel(), pochoir.SupervisePolicy{})
	})
	if err != nil {
		t.Fatal(err)
	}
	slot := uint64(N * N * 8)
	t.Logf("the job allocated %d bytes; one slot is %d", got, slot)
	if rep.Checkpoints != 1 || got < slot || got > slot+slot/4 {
		t.Fatalf("%d checkpoints allocating %d bytes in all, want 1 of one %d-byte slot (plus < 2 MiB of other allocation)",
			rep.Checkpoints, got, slot)
	}
}
