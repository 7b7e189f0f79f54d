package metrics

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Progress is the live run-progress estimator of one in-flight Run or
// RunSupervised call. The engine adds every executed base-case volume to it
// (completed time steps × touched points), and the monitor compares the
// running total against the predicted total — steps × grid volume, which
// the decomposition partitions exactly — to publish percent-complete and an
// ETA while the run executes.
//
// The executed-points counter is cumulative and never decremented, so the
// published percent is monotonically non-decreasing even when the
// resilience supervisor restores a checkpoint and re-executes a segment:
// redone work counts again, and the percent (clamped at 100) simply
// approaches completion faster than the committed state does. A successful
// run always reaches exactly 100.
type Progress struct {
	id    int64
	label string
	total int64
	reg   *Registry

	done       atomic.Int64
	startNS    int64 // nanoseconds since the registry epoch
	finishedNS atomic.Int64
	failed     atomic.Bool
}

// Add records n executed space-time points. It is called from worker
// goroutines at base-case granularity — one striped-free atomic add,
// amortized over the zoid's whole point set.
func (p *Progress) Add(n int64) { p.done.Add(n) }

// Done returns the cumulative executed points (redone segments included).
func (p *Progress) Done() int64 { return p.done.Load() }

// Total returns the predicted total points.
func (p *Progress) Total() int64 { return p.total }

// Percent returns the completion estimate in [0, 100].
func (p *Progress) Percent() float64 {
	if p.total <= 0 {
		if p.finishedNS.Load() != 0 && !p.failed.Load() {
			return 100
		}
		return 0
	}
	pct := 100 * float64(p.done.Load()) / float64(p.total)
	if pct > 100 {
		pct = 100
	}
	return pct
}

// elapsed returns the active duration: start to now while running, start to
// finish once finished.
func (p *Progress) elapsed() time.Duration {
	end := p.finishedNS.Load()
	if end == 0 {
		end = p.reg.nowNS()
	}
	return time.Duration(end - p.startNS)
}

// ETA estimates the remaining duration from the observed point rate; zero
// when the run is finished, complete, or too young to have a rate.
func (p *Progress) ETA() time.Duration {
	if p.finishedNS.Load() != 0 {
		return 0
	}
	done := p.done.Load()
	remaining := p.total - done
	if done <= 0 || remaining <= 0 {
		return 0
	}
	el := p.elapsed()
	if el <= 0 {
		return 0
	}
	return time.Duration(float64(el) * float64(remaining) / float64(done))
}

// Finish marks the run complete. On success the done counter is raised to
// the total (a successful run has executed at least every point once, but a
// total of 0 steps or a counter armed mid-run should still read 100%).
// Finish is idempotent; the first call wins.
func (p *Progress) Finish(ok bool) {
	if !p.finishedNS.CompareAndSwap(0, p.reg.nowNS()) {
		return
	}
	if !ok {
		p.failed.Store(true)
		return
	}
	if d := p.done.Load(); d < p.total {
		p.done.Add(p.total - d)
	}
}

// Finished reports whether Finish was called.
func (p *Progress) Finished() bool { return p.finishedNS.Load() != 0 }

// ProgressStat is the JSON view of one run's progress, served at /progressz
// and embedded in /statusz.
type ProgressStat struct {
	ID             int64   `json:"id"`
	Label          string  `json:"label"`
	Active         bool    `json:"active"`
	OK             bool    `json:"ok"` // meaningful once Active is false
	Percent        float64 `json:"percent"`
	PointsDone     int64   `json:"points_done"`
	PointsTotal    int64   `json:"points_total"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	ETASeconds     float64 `json:"eta_seconds"`
	// RateMpts is the observed throughput in millions of points per second.
	RateMpts float64 `json:"rate_mpts"`
}

// stat builds the JSON view.
func (p *Progress) stat() ProgressStat {
	el := p.elapsed()
	st := ProgressStat{
		ID:             p.id,
		Label:          p.label,
		Active:         !p.Finished(),
		OK:             p.Finished() && !p.failed.Load(),
		Percent:        p.Percent(),
		PointsDone:     p.done.Load(),
		PointsTotal:    p.total,
		ElapsedSeconds: el.Seconds(),
		ETASeconds:     p.ETA().Seconds(),
	}
	if el > 0 {
		st.RateMpts = float64(st.PointsDone) / el.Seconds() / 1e6
	}
	return st
}

// keepFinished bounds the finished-run history served by /progressz.
const keepFinished = 8

// progressSet tracks the in-flight runs plus a short history of finished
// ones. The set's lock covers only StartProgress/snapshot bookkeeping;
// Progress updates themselves are atomic.
type progressSet struct {
	mu       sync.Mutex
	nextID   int64
	active   []*Progress
	finished []*Progress
}

// nowNS is the registry's monotonic progress clock.
func (r *Registry) nowNS() int64 { return time.Since(r.epoch).Nanoseconds() }

// StartProgress registers a new in-flight run with the predicted total
// point count and returns its estimator. The caller must call Finish when
// the run ends, whatever the outcome.
func (r *Registry) StartProgress(label string, totalPoints int64) *Progress {
	p := &Progress{label: label, total: totalPoints, reg: r, startNS: r.nowNS()}
	s := &r.prog
	s.mu.Lock()
	s.nextID++
	p.id = s.nextID
	// Sweep previously finished runs into the bounded history first so the
	// active list holds only live runs plus the most recently finished.
	live := s.active[:0]
	for _, q := range s.active {
		if q.Finished() {
			s.finished = append(s.finished, q)
		} else {
			live = append(live, q)
		}
	}
	s.active = append(live, p)
	if n := len(s.finished); n > keepFinished {
		s.finished = append(s.finished[:0], s.finished[n-keepFinished:]...)
	}
	s.mu.Unlock()
	return p
}

// ProgressSnapshot returns the current runs (finished ones included until
// they age out of the history), newest first.
func (r *Registry) ProgressSnapshot() []ProgressStat {
	s := &r.prog
	s.mu.Lock()
	all := make([]*Progress, 0, len(s.active)+len(s.finished))
	all = append(all, s.active...)
	all = append(all, s.finished...)
	s.mu.Unlock()
	out := make([]ProgressStat, 0, len(all))
	for _, p := range all {
		out = append(out, p.stat())
	}
	// Newest first: ids are assigned in start order.
	sort.Slice(out, func(i, j int) bool { return out[i].ID > out[j].ID })
	return out
}

// ProgressOf returns the newest run labelled label, finished ones included
// until they age out of the history, and whether there is one. It is
// ProgressSnapshot's first entry with that label, without a stat per run
// or a sort.
func (r *Registry) ProgressOf(label string) (ProgressStat, bool) {
	s := &r.prog
	s.mu.Lock()
	var newest *Progress
	for _, runs := range [2][]*Progress{s.active, s.finished} {
		for i := len(runs) - 1; i >= 0; i-- {
			if p := runs[i]; p.label == label && (newest == nil || p.id > newest.id) {
				newest = p
			}
		}
	}
	s.mu.Unlock()
	if newest == nil {
		return ProgressStat{}, false
	}
	return newest.stat(), true
}

// latest returns the most recently started run, preferring an unfinished
// one; nil when no run was ever tracked.
func (s *progressSet) latest() *Progress {
	s.mu.Lock()
	defer s.mu.Unlock()
	var last *Progress
	for _, p := range s.active {
		if !p.Finished() {
			last = p // active list is in start order; keep the newest
		}
	}
	if last != nil {
		return last
	}
	if n := len(s.active); n > 0 {
		return s.active[n-1]
	}
	if n := len(s.finished); n > 0 {
		return s.finished[n-1]
	}
	return nil
}

// writePrometheus contributes the latest run's progress gauges to the
// /metrics exposition.
func (s *progressSet) writePrometheus(bw *bufio.Writer) {
	p := s.latest()
	if p == nil {
		return
	}
	st := p.stat()
	fmt.Fprintf(bw, "# HELP pochoir_progress_percent Completion estimate of the most recent run (monotone per run).\n")
	fmt.Fprintf(bw, "# TYPE pochoir_progress_percent gauge\n")
	fmt.Fprintf(bw, "pochoir_progress_percent %s\n", formatFloat(st.Percent))
	fmt.Fprintf(bw, "# HELP pochoir_progress_points_done Space-time points executed by the most recent run (redone segments included).\n")
	fmt.Fprintf(bw, "# TYPE pochoir_progress_points_done gauge\n")
	fmt.Fprintf(bw, "pochoir_progress_points_done %d\n", st.PointsDone)
	fmt.Fprintf(bw, "# HELP pochoir_progress_points_total Predicted total points of the most recent run.\n")
	fmt.Fprintf(bw, "# TYPE pochoir_progress_points_total gauge\n")
	fmt.Fprintf(bw, "pochoir_progress_points_total %d\n", st.PointsTotal)
	fmt.Fprintf(bw, "# HELP pochoir_progress_eta_seconds Estimated seconds to completion of the most recent run.\n")
	fmt.Fprintf(bw, "# TYPE pochoir_progress_eta_seconds gauge\n")
	fmt.Fprintf(bw, "pochoir_progress_eta_seconds %s\n", formatFloat(st.ETASeconds))
	active := 0.0
	if st.Active {
		active = 1
	}
	fmt.Fprintf(bw, "# HELP pochoir_progress_active Whether the most recent run is still in flight.\n")
	fmt.Fprintf(bw, "# TYPE pochoir_progress_active gauge\n")
	fmt.Fprintf(bw, "pochoir_progress_active %s\n", formatFloat(active))
}

// WriteProgressz writes the /progressz JSON document.
func (r *Registry) WriteProgressz(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Runs []ProgressStat `json:"runs"`
	}{Runs: r.ProgressSnapshot()})
}
