package telemetry

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"
)

// Stats is the aggregate view of a walk or a recorder: decomposition
// counters, the base-case volume histograms, scheduler decisions, and
// per-worker busy time. It is a plain value; Delta subtracts an earlier
// snapshot of the same recorder.
type Stats struct {
	// Wall is the walk's wall-clock time; a recorder's is the accumulated
	// wall-clock time of its instrumented runs.
	Wall time.Duration
	// Workers is the number of worker shards: a walk's concurrently live
	// worker goroutines at peak, the most of any one walk for a recorder.
	Workers int

	// Decomposition node counts by cut kind.
	TimeCuts   int64
	HyperCuts  int64
	SpaceCuts  int64 // STRAP trisections
	CircleCuts int64 // STRAP periodic circle cuts
	// HyperByK[k] counts hyperspace cuts that cut k dimensions at once;
	// each should fan out ~3^k subzoids over k+1 dependency levels.
	HyperByK [MaxCutDims + 1]int64
	// Fanout and Levels total the subzoids and dependency levels produced
	// by all hyperspace cuts.
	Fanout int64
	Levels int64

	// Base-case accounting. BasePoints is the total number of space-time
	// point updates executed; for a full run it must equal
	// steps x grid volume (the decomposition partitions space-time).
	Bases         int64
	InteriorBases int64
	BasePoints    int64
	// BaseVolumeHist[b] counts base cases whose zoid volume v satisfies
	// floor(log2(v)) == b.
	BaseVolumeHist [volumeBuckets]int64
	// BaseVolumeLe[e] counts base cases whose zoid volume v satisfies
	// 2^(e-1) < v <= 2^e (v <= 1 in bin 0): the le bins of a Prometheus
	// histogram, which floor-log2 bins do not align with.
	BaseVolumeLe [volumeBuckets]int64

	// Scheduler decisions: tasks run on fresh goroutines vs. inline.
	Spawns  int64
	Inlines int64

	// WorkerBusy[i] is the time worker shard i spent inside base cases
	// (kernel work, excluding decomposition and blocking).
	WorkerBusy []time.Duration
}

// Zoids returns the total number of decomposition nodes visited: every
// cut of any kind plus every base case.
func (st Stats) Zoids() int64 {
	return st.TimeCuts + st.HyperCuts + st.SpaceCuts + st.CircleCuts + st.Bases
}

// BoundaryBases returns the base cases dispatched to the boundary clone.
func (st Stats) BoundaryBases() int64 { return st.Bases - st.InteriorBases }

// BusyTotal returns the summed busy time across workers.
func (st Stats) BusyTotal() time.Duration {
	var t time.Duration
	for _, b := range st.WorkerBusy {
		t += b
	}
	return t
}

// AchievedParallelism is total worker busy time over wall time — the
// empirical counterpart of the work/span parallelism Fig. 9 predicts
// (capped in practice by GOMAXPROCS, unlike the analytical T1/T∞).
func (st Stats) AchievedParallelism() float64 {
	if st.Wall <= 0 {
		return 0
	}
	return float64(st.BusyTotal()) / float64(st.Wall)
}

// BaseVolumePercentile returns an estimate of the q-th percentile
// (q in [0,1]) of the base-case zoid volume, computed from the log2
// histogram: the bucket holding the q-th ranked base case contributes its
// geometric-midpoint volume, 1.5*2^b. With zero recorded base cases it
// returns 0 rather than dividing by the empty total.
func (st Stats) BaseVolumePercentile(q float64) float64 {
	var total int64
	for _, n := range st.BaseVolumeHist {
		total += n
	}
	if total <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Nearest-rank percentile: the ceil(q*total)-th ranked sample.
	rank := int64(math.Ceil(q*float64(total))) - 1
	if rank < 0 {
		rank = 0
	}
	var cum int64
	for b, n := range st.BaseVolumeHist {
		cum += n
		if n > 0 && cum > rank {
			return math.Ldexp(1.5, b)
		}
	}
	return math.Ldexp(1.5, len(st.BaseVolumeHist)-1)
}

// AvgBaseVolume returns the mean base-case volume in points, 0 with no
// recorded base cases.
func (st Stats) AvgBaseVolume() float64 {
	if st.Bases <= 0 {
		return 0
	}
	return float64(st.BasePoints) / float64(st.Bases)
}

// Summary is the compact JSON-marshalable view of Stats: the decomposition
// counters plus the derived base-volume percentiles and achieved
// parallelism, without the histograms and per-worker arrays. It is what the
// benchmark lab embeds in its fused per-run records.
type Summary struct {
	WallSeconds         float64 `json:"wall_seconds"`
	Zoids               int64   `json:"zoids"`
	TimeCuts            int64   `json:"time_cuts"`
	HyperCuts           int64   `json:"hyper_cuts"`
	SpaceCuts           int64   `json:"space_cuts"`
	CircleCuts          int64   `json:"circle_cuts"`
	Bases               int64   `json:"bases"`
	InteriorBases       int64   `json:"interior_bases"`
	BasePoints          int64   `json:"base_points"`
	BaseVolP50          float64 `json:"base_vol_p50"`
	BaseVolP90          float64 `json:"base_vol_p90"`
	BaseVolP99          float64 `json:"base_vol_p99"`
	Spawns              int64   `json:"spawns"`
	Inlines             int64   `json:"inlines"`
	AchievedParallelism float64 `json:"achieved_parallelism"`
}

// Summary returns the compact JSON view of st.
func (st Stats) Summary() Summary {
	return Summary{
		WallSeconds:         st.Wall.Seconds(),
		Zoids:               st.Zoids(),
		TimeCuts:            st.TimeCuts,
		HyperCuts:           st.HyperCuts,
		SpaceCuts:           st.SpaceCuts,
		CircleCuts:          st.CircleCuts,
		Bases:               st.Bases,
		InteriorBases:       st.InteriorBases,
		BasePoints:          st.BasePoints,
		BaseVolP50:          st.BaseVolumePercentile(0.50),
		BaseVolP90:          st.BaseVolumePercentile(0.90),
		BaseVolP99:          st.BaseVolumePercentile(0.99),
		Spawns:              st.Spawns,
		Inlines:             st.Inlines,
		AchievedParallelism: st.AchievedParallelism(),
	}
}

// Delta returns the difference st - prev, the activity between two
// snapshots of the same recorder.
func (st Stats) Delta(prev Stats) Stats {
	out := st
	out.Wall -= prev.Wall
	out.WorkerBusy = append([]time.Duration(nil), st.WorkerBusy...)
	out.addCounters(&prev, -1)
	return out
}

// addCounters adds sign times o's counters — every field but Wall and
// Workers — to st; worker i's busy time goes to worker i's.
func (st *Stats) addCounters(o *Stats, sign int64) {
	st.TimeCuts += sign * o.TimeCuts
	st.HyperCuts += sign * o.HyperCuts
	st.SpaceCuts += sign * o.SpaceCuts
	st.CircleCuts += sign * o.CircleCuts
	for k := range st.HyperByK {
		st.HyperByK[k] += sign * o.HyperByK[k]
	}
	st.Fanout += sign * o.Fanout
	st.Levels += sign * o.Levels
	st.Bases += sign * o.Bases
	st.InteriorBases += sign * o.InteriorBases
	st.BasePoints += sign * o.BasePoints
	for b := range st.BaseVolumeHist {
		st.BaseVolumeHist[b] += sign * o.BaseVolumeHist[b]
		st.BaseVolumeLe[b] += sign * o.BaseVolumeLe[b]
	}
	st.Spawns += sign * o.Spawns
	st.Inlines += sign * o.Inlines
	for i, b := range o.WorkerBusy {
		if i == len(st.WorkerBusy) {
			st.WorkerBusy = append(st.WorkerBusy, 0)
		}
		st.WorkerBusy[i] += time.Duration(sign) * b
	}
}

// WriteReport renders the human-readable stats report.
func (st Stats) WriteReport(w io.Writer) {
	fmt.Fprintf(w, "telemetry: wall %.3fs, %d worker(s)\n", st.Wall.Seconds(), st.Workers)
	fmt.Fprintf(w, "decomposition: %d zoids — %d hyperspace cuts, %d time cuts, %d trisections, %d circle cuts, %d base cases\n",
		st.Zoids(), st.HyperCuts, st.TimeCuts, st.SpaceCuts, st.CircleCuts, st.Bases)
	if st.HyperCuts > 0 {
		fmt.Fprintf(w, "hyperspace cuts by dims cut:")
		for k, n := range st.HyperByK {
			if n > 0 {
				fmt.Fprintf(w, "  k=%d: %d", k, n)
			}
		}
		fmt.Fprintf(w, "  (avg fanout %.1f subzoids over avg %.1f levels)\n",
			float64(st.Fanout)/float64(st.HyperCuts), float64(st.Levels)/float64(st.HyperCuts))
	}
	fmt.Fprintf(w, "base cases: %d interior, %d boundary; %d point updates\n",
		st.InteriorBases, st.BoundaryBases(), st.BasePoints)
	if st.Bases > 0 {
		fmt.Fprintf(w, "base-case volume histogram (points per zoid):\n")
		lo, hi := 0, len(st.BaseVolumeHist)-1
		for lo < len(st.BaseVolumeHist) && st.BaseVolumeHist[lo] == 0 {
			lo++
		}
		for hi >= 0 && st.BaseVolumeHist[hi] == 0 {
			hi--
		}
		var max int64
		for b := lo; b <= hi; b++ {
			if st.BaseVolumeHist[b] > max {
				max = st.BaseVolumeHist[b]
			}
		}
		for b := lo; b <= hi; b++ {
			n := st.BaseVolumeHist[b]
			bar := ""
			if max > 0 {
				bar = strings.Repeat("#", int(40*n/max))
			}
			fmt.Fprintf(w, "  [2^%-2d, 2^%-2d): %8d %s\n", b, b+1, n, bar)
		}
		fmt.Fprintf(w, "base-case volume: avg %.0f, p50 ~%.0f, p90 ~%.0f, p99 ~%.0f points\n",
			st.AvgBaseVolume(), st.BaseVolumePercentile(0.50),
			st.BaseVolumePercentile(0.90), st.BaseVolumePercentile(0.99))
	}
	fmt.Fprintf(w, "scheduler: %d goroutines spawned, %d tasks inlined\n", st.Spawns, st.Inlines)
	if len(st.WorkerBusy) > 0 {
		fmt.Fprintf(w, "worker busy time:")
		for i, b := range st.WorkerBusy {
			fmt.Fprintf(w, "  w%d=%.3fs", i, b.Seconds())
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "achieved parallelism: %.2f (busy %.3fs / wall %.3fs)\n",
		st.AchievedParallelism(), st.BusyTotal().Seconds(), st.Wall.Seconds())
}

// Report returns WriteReport's output as a string.
func (st Stats) Report() string {
	var sb strings.Builder
	st.WriteReport(&sb)
	return sb.String()
}
