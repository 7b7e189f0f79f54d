// Package benchdef is the single source of truth for benchmark workload
// definitions. The sizes and step counts of the paper's evaluation suite
// were historically duplicated between the go-test benchmarks
// (bench_test.go), the experiment driver (cmd/experiments), and now the
// benchmark lab (internal/benchlab); this package centralizes them so every
// harness times the same space-time boxes and their numbers stay
// comparable. It holds only data — no execution — so anything may import
// it without cycles.
package benchdef

// Workload is one benchmark's space-time box: spatial extents and time
// steps.
type Workload struct {
	Sizes []int `json:"sizes"`
	Steps int   `json:"steps"`
}

// Updates returns the number of space-time point updates the workload
// executes (grid volume x steps).
func (w Workload) Updates() int64 {
	p := int64(1)
	for _, s := range w.Sizes {
		p *= int64(s)
	}
	return p * int64(w.Steps)
}

// bench is the go-test bench profile: sized so `go test -bench=.` finishes
// in minutes (historically bench_test.go's benchWorkloads table).
var bench = map[string]Workload{
	"Heat 2":      {[]int{512, 512}, 32},
	"Heat 2p":     {[]int{512, 512}, 32},
	"Heat 4":      {[]int{16, 16, 16, 16}, 8},
	"Life 2p":     {[]int{512, 512}, 32},
	"Wave 3":      {[]int{64, 64, 64}, 16},
	"LBM 3":       {[]int{24, 24, 28}, 12},
	"RNA 2":       {[]int{96, 96}, 96},
	"PSA 1":       {[]int{4001}, 8200},
	"LCS 1":       {[]int{4001}, 8200},
	"APOP":        {[]int{100000}, 200},
	"3D 7-point":  {[]int{64, 64, 64}, 16},
	"3D 27-point": {[]int{64, 64, 64}, 16},
}

// quick is the smoke-test profile: the smallest workloads that still
// exercise every code path (historically cmd/experiments' quickWorkloads).
var quick = map[string]Workload{
	"Heat 2":      {[]int{300, 300}, 30},
	"Heat 2p":     {[]int{300, 300}, 30},
	"Heat 4":      {[]int{16, 16, 16, 16}, 8},
	"Life 2p":     {[]int{300, 300}, 30},
	"Wave 3":      {[]int{48, 48, 48}, 12},
	"LBM 3":       {[]int{16, 16, 20}, 16},
	"RNA 2":       {[]int{64, 64}, 128},
	"PSA 1":       {[]int{2001}, 4200},
	"LCS 1":       {[]int{2001}, 4200},
	"APOP":        {[]int{40000}, 300},
	"3D 7-point":  {[]int{48, 48, 48}, 16},
	"3D 27-point": {[]int{48, 48, 48}, 16},
}

// Bench returns the go-test bench workload for a benchmark name.
func Bench(name string) (Workload, bool) {
	w, ok := bench[name]
	return w, ok
}

// Quick returns the smoke-test workload for a benchmark name.
func Quick(name string) (Workload, bool) {
	w, ok := quick[name]
	return w, ok
}

// AblationHeat2D and AblationHeat2DSmall are the Heat 2p workloads the §4
// ablation benchmarks (coarsening, modular indexing, loop-indexing styles,
// Phase 1 vs Phase 2) share with the Fig. 3 Heat 2p row.
var (
	AblationHeat2D      = Workload{Sizes: []int{512, 512}, Steps: 32}
	AblationHeat2DSmall = Workload{Sizes: []int{256, 256}, Steps: 16}
)

// ServedHeat2D is the box of the daemon's compute-bound jobs (bench's
// serve-compute workload): its two time planes, 576 KiB, fit in a 2 MiB
// L2, where AblationHeat2D's 4 MiB do not.
var ServedHeat2D = Workload{Sizes: []int{192, 192}, Steps: 32}

// CoarseningConfig is one base-case-coarsening setting of the §4 ablation,
// as plain data (zero values select the paper's heuristic, as in
// pochoir.Options).
type CoarseningConfig struct {
	Name        string
	TimeCutoff  int
	SpaceCutoff []int
	Grain       int64
}

// CoarseningAblation are the three settings both the go-test coarsening
// benchmark and the `-run coarsen` experiment sweep: recursion down to
// single points, a small fixed tile, and the paper's heuristic.
var CoarseningAblation = []CoarseningConfig{
	{Name: "pointwise", TimeCutoff: 1, SpaceCutoff: []int{1, 1}, Grain: 1 << 10},
	{Name: "small-8x8", TimeCutoff: 2, SpaceCutoff: []int{8, 8}},
	{Name: "paper-heuristic"},
}

// Fig9Case is one work/span analyzer configuration of the Fig. 9
// parallelism study: a uniform-slope cubic grid of side N swept for Steps
// home times, uncoarsened.
type Fig9Case struct {
	Name  string
	Dims  int
	N     int
	Steps int
}

// Fig9Bench are the fixed configurations the go-test Fig. 9 benchmark
// analyzes under both TRAP and STRAP.
var Fig9Bench = []Fig9Case{
	{"2DHeat", 2, 800, 1000},
	{"3DWave", 3, 200, 1000},
}

// Fig9Sweep2D / Fig9Sweep3D are the N sweeps of the fig9 experiment, with
// the quick (smoke-test) prefixes.
var (
	Fig9Sweep2D      = []int{100, 200, 400, 800, 1600, 3200, 6400}
	Fig9Sweep2DQuick = []int{100, 200, 400, 800}
	Fig9Sweep3D      = []int{100, 200, 400, 800}
	Fig9Sweep3DQuick = []int{100, 200}
	Fig9Steps        = 1000
)

// Fig. 10 ideal-cache geometry: a 32 KB L1 of doubles with 64-byte lines
// (M=4096 points, B=8 points); the 3D experiment models a 256 KB cache so
// the cache-oblivious tile side stays meaningful.
const (
	Fig10CacheM   = 4096
	Fig10CacheM3D = 32768
	Fig10CacheB   = 8
)
