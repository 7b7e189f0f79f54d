package stencils

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"pochoir"
	"pochoir/internal/core"
	"pochoir/internal/shape"
)

// agree compares two final states; when exact is true they must be
// bitwise identical (all paths evaluate the same expression tree per point).
func agree(t *testing.T, name string, a, b []float64, exact bool) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: result lengths differ: %d vs %d", name, len(a), len(b))
	}
	worst, worstIdx := 0.0, -1
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > worst {
			worst, worstIdx = d, i
		}
	}
	tol := 0.0
	if !exact {
		tol = 1e-9
	}
	if worst > tol {
		t.Fatalf("%s: results differ by %g at index %d (%g vs %g)",
			name, worst, worstIdx, a[worstIdx], b[worstIdx])
	}
}

// checkAllPaths runs every execution path of the instance factory and
// verifies they agree. mk must return a fresh instance per call.
func checkAllPaths(t *testing.T, mk func() Instance, exact bool) {
	t.Helper()
	ref := mk().LoopsSerial().Run()
	type path struct {
		name string
		job  Job
	}
	// Cutoffs of 4 points cut every dimension, the unit-stride one included,
	// which the default coarsening never does in 3D and above.
	cut := make([]int, mk().Dims())
	for i := range cut {
		cut[i] = 4
	}
	paths := []path{
		{"LoopsParallel", mk().LoopsParallel()},
		{"Pochoir", mk().Pochoir(pochoir.Options{})},
		{"Pochoir serial", mk().Pochoir(pochoir.Options{Serial: true})},
		{"Pochoir STRAP", mk().Pochoir(pochoir.Options{Algorithm: core.STRAP})},
		{"Pochoir STRAP serial", mk().Pochoir(pochoir.Options{Algorithm: core.STRAP, Serial: true})},
		{"Pochoir fine", mk().Pochoir(pochoir.Options{TimeCutoff: 2, Grain: 1})},
		{"Pochoir unit-stride cut", mk().Pochoir(pochoir.Options{TimeCutoff: 2, SpaceCutoff: cut, Grain: 1})},
		{"PochoirGeneric", mk().PochoirGeneric(pochoir.Options{})},
	}
	for _, p := range paths {
		got := p.job.Run()
		agree(t, mk().Name()+"/"+p.name, ref, got, exact)
	}
}

// checkShape requires f's shape, inferred from its specification, to be the
// one written by hand from cells: the same cell set, depth, slopes and
// reaches, so that the decomposition, and every zoid, stay what they were.
func checkShape(t *testing.T, f Factory, cells [][]int) {
	t.Helper()
	got, want := f.Shape(), pochoir.MustShape(3, cells)
	key := func(c shape.Cell) string { return fmt.Sprint(c.DT, c.DX) }
	set := map[string]bool{}
	for _, c := range want.Cells {
		set[key(c)] = true
	}
	if len(got.Cells) != len(want.Cells) || key(got.Cells[0]) != key(want.Cells[0]) {
		t.Fatalf("%s: %d cells, home %v; want %d, home %v", f.Name, len(got.Cells), got.Cells[0], len(want.Cells), want.Cells[0])
	}
	for _, c := range got.Cells {
		if !set[key(c)] {
			t.Fatalf("%s: cell %v is not in the hand-written shape", f.Name, c)
		}
	}
	if got.Depth() != want.Depth() || !slices.Equal(got.Slopes(), want.Slopes()) || !slices.Equal(got.Reaches(), want.Reaches()) {
		t.Fatalf("%s: depth %d slopes %v reach %v; want %d %v %v", f.Name,
			got.Depth(), got.Slopes(), got.Reaches(), want.Depth(), want.Slopes(), want.Reaches())
	}
}

func TestFactoriesRegistered(t *testing.T) {
	all := All()
	if len(all) < 2 {
		t.Fatalf("registry has %d entries", len(all))
	}
	seen := map[string]bool{}
	last := -1
	for _, f := range all {
		if seen[f.Name] {
			t.Fatalf("duplicate factory %q", f.Name)
		}
		seen[f.Name] = true
		if f.Order < last {
			t.Fatalf("registry not ordered at %q", f.Name)
		}
		last = f.Order
		if f.New == nil || f.Dims < 1 {
			t.Fatalf("factory %q incomplete", f.Name)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("Heat 2p"); !ok {
		t.Fatal("Heat 2p should be registered")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("unknown benchmark should not resolve")
	}
}

func TestInstanceMetadata(t *testing.T) {
	for _, f := range All() {
		inst := f.New(nil, 0)
		if inst.Name() == "" || inst.Dims() != f.Dims {
			t.Errorf("%s: bad metadata", f.Name)
		}
		if inst.Steps() <= 0 || inst.Points() <= 0 || inst.FlopsPerPoint() < 0 {
			t.Errorf("%s: nonpositive workload: steps=%d points=%d", f.Name, inst.Steps(), inst.Points())
		}
		if len(inst.Sizes()) != f.Dims {
			t.Errorf("%s: sizes/dims mismatch", f.Name)
		}
		if f.PaperSteps <= 0 || len(f.PaperSizes) != f.Dims {
			t.Errorf("%s: paper workload not recorded", f.Name)
		}
	}
}
