package benchlab

import (
	"testing"

	"pochoir/internal/benchdef"
	"pochoir/internal/core"
	"pochoir/internal/stencils"
)

// TestDecompositionPinned pins what the walk decides, as opposed to what it
// costs: for every benchmark of the suite at quick scale, under both
// recursive engines, the counters an executed run reports (telemetry) and
// the analyzer's replay of the same geometry (cilkview) must equal the
// values recorded at commit ffd3f2f, the last one with the materialising
// walker. A walker change meant to be cost-only that moves any of them has
// changed the decomposition: base-case shapes, cut order or coarsening. A
// change that means to do so re-records the table and says so.
//
// Heat 2 and Heat 2p run their specifications' row-program clones, which
// declare WholeRows, so their telemetry entries were re-recorded when they
// left their hand-written pairs: the walk never cuts a row. Their cilkview
// entries replay DefaultCoarsening, the §4 cut-rows geometry, and so no
// longer describe the walk the run makes.
func TestDecompositionPinned(t *testing.T) {
	type tel struct{ zoids, bases, interior, timeCuts, hyperCuts, spaceCuts, circleCuts int64 }
	type cv struct{ work, span, zoids, bases int64 }
	pins := []struct {
		name string
		alg  core.Algorithm
		tel  tel
		cv   cv
	}{
		{"Heat 2", core.TRAP, tel{123, 64, 0, 56, 3, 0, 0}, cv{2700000, 237210, 973, 512}},
		{"Heat 2", core.STRAP, tel{123, 64, 0, 56, 0, 2, 1}, cv{2700000, 333498, 987, 512}},
		{"Heat 2p", core.TRAP, tel{123, 64, 0, 56, 3, 0, 0}, cv{2700000, 237210, 973, 512}},
		{"Heat 2p", core.STRAP, tel{123, 64, 0, 56, 0, 2, 1}, cv{2700000, 333498, 987, 512}},
		{"Heat 4", core.TRAP, tel{2403, 2048, 0, 129, 226, 0, 0}, cv{524288, 15496, 2403, 2048}},
		{"Heat 4", core.STRAP, tel{3115, 2048, 0, 129, 0, 896, 42}, cv{524288, 32540, 3115, 2048}},
		{"Life 2p", core.TRAP, tel{973, 512, 368, 448, 13, 0, 0}, cv{2700000, 237210, 973, 512}},
		{"Life 2p", core.STRAP, tel{987, 512, 368, 448, 0, 18, 9}, cv{2700000, 333498, 987, 512}},
		{"Wave 3", core.TRAP, tel{1385, 1024, 0, 144, 217, 0, 0}, cv{1327104, 70766, 1385, 1024}},
		{"Wave 3", core.STRAP, tel{1605, 1024, 0, 144, 0, 432, 5}, cv{1327104, 111732, 1605, 1024}},
		{"LBM 3", core.TRAP, tel{679, 512, 0, 67, 100, 0, 0}, cv{81920, 9080, 679, 512}},
		{"LBM 3", core.STRAP, tel{791, 512, 0, 67, 0, 192, 20}, cv{81920, 12328, 791, 512}},
		{"RNA 2", core.TRAP, tel{63, 32, 0, 31, 0, 0, 0}, cv{524288, 524288, 63, 32}},
		{"RNA 2", core.STRAP, tel{63, 32, 0, 31, 0, 0, 0}, cv{524288, 524288, 63, 32}},
		{"PSA 1", core.TRAP, tel{591, 320, 224, 239, 32, 0, 0}, cv{8404200, 4200064, 591, 320}},
		{"PSA 1", core.STRAP, tel{591, 320, 224, 239, 0, 16, 16}, cv{8404200, 4200064, 591, 320}},
		{"LCS 1", core.TRAP, tel{591, 320, 224, 239, 32, 0, 0}, cv{8404200, 4200064, 591, 320}},
		{"LCS 1", core.STRAP, tel{591, 320, 224, 239, 0, 16, 16}, cv{8404200, 4200064, 591, 320}},
		{"APOP", core.TRAP, tel{959, 512, 506, 384, 63, 0, 0}, cv{12000000, 636019, 959, 512}},
		{"APOP", core.STRAP, tel{959, 512, 506, 384, 0, 62, 1}, cv{12000000, 636019, 959, 512}},
		{"3D 7-point", core.TRAP, tel{5131, 3968, 0, 449, 714, 0, 0}, cv{1769472, 58302, 5131, 3968}},
		{"3D 7-point", core.STRAP, tel{6171, 3968, 0, 449, 0, 1744, 10}, cv{1769472, 99642, 6171, 3968}},
		{"3D 27-point", core.TRAP, tel{5131, 3968, 0, 449, 714, 0, 0}, cv{1769472, 58302, 5131, 3968}},
		{"3D 27-point", core.STRAP, tel{6171, 3968, 0, 449, 0, 1744, 10}, cv{1769472, 99642, 6171, 3968}},
	}
	pinned := map[string]bool{}
	for _, p := range pins {
		pinned[p.name] = true
		f, ok := stencils.Lookup(p.name)
		if !ok {
			t.Fatalf("stencils has no benchmark %q", p.name)
		}
		w, ok := benchdef.Quick(p.name)
		if !ok {
			t.Fatalf("benchdef has no quick workload for %q", p.name)
		}
		s, err := telemetrySignal(f, w, p.alg)
		if err != nil {
			t.Fatalf("%s %v: %v", p.name, p.alg, err)
		}
		if got := (tel{s.Zoids, s.Bases, s.InteriorBases, s.TimeCuts, s.HyperCuts, s.SpaceCuts, s.CircleCuts}); got != p.tel {
			t.Errorf("%s %v telemetry {zoids bases interior time hyper space circle}:\n got  %v\n want %v", p.name, p.alg, got, p.tel)
		}
		if want := w.Updates(); s.BasePoints != want {
			t.Errorf("%s %v: base cases covered %d points, the box has %d", p.name, p.alg, s.BasePoints, want)
		}
		v := cilkviewSignal(f, w, p.alg)
		if got := (cv{v.Work, v.Span, v.Zoids, v.Bases}); got != p.cv {
			t.Errorf("%s %v cilkview {work span zoids bases}:\n got  %v\n want %v", p.name, p.alg, got, p.cv)
		}
	}
	for _, f := range stencils.All() {
		if _, ok := benchdef.Quick(f.Name); ok && !pinned[f.Name] {
			t.Errorf("benchmark %q has a quick workload and no pinned decomposition", f.Name)
		}
	}
}
