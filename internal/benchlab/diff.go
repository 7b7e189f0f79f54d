package benchlab

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"pochoir/internal/profile"
)

// Gate is the noise-aware regression criterion. A configuration is flagged
// only when the median shift clears BOTH thresholds:
//
//   - the relative shift |new-old|/old exceeds RelThreshold, AND
//   - the absolute shift exceeds MADFactor x the larger of the two runs'
//     MADs (so a shift indistinguishable from run-to-run jitter never
//     trips the gate, however large the relative number looks on a
//     microsecond-scale benchmark).
//
// With both MADs zero (synthetic or single-shot data) the MAD clause is
// vacuous and the relative threshold decides alone.
type Gate struct {
	RelThreshold float64
	MADFactor    float64
}

// DefaultGate flags shifts above 10% that also exceed 3 MADs.
func DefaultGate() Gate { return Gate{RelThreshold: 0.10, MADFactor: 3} }

// exceeds reports whether a median shift of delta (positive = slower) is
// distinguishable from noise under the gate.
func (g Gate) exceeds(old, delta, oldMAD, newMAD float64) bool {
	if old <= 0 || delta <= 0 {
		return false
	}
	if delta/old <= g.RelThreshold {
		return false
	}
	mad := oldMAD
	if newMAD > mad {
		mad = newMAD
	}
	return delta > g.MADFactor*mad
}

// Delta is the comparison of one configuration across two reports.
type Delta struct {
	Benchmark string  `json:"benchmark"`
	Engine    string  `json:"engine"`
	OldMedian float64 `json:"old_median_seconds"`
	NewMedian float64 `json:"new_median_seconds"`
	OldMAD    float64 `json:"old_mad_seconds"`
	NewMAD    float64 `json:"new_mad_seconds"`
	// Rel is (new-old)/old: positive = slower.
	Rel float64 `json:"rel"`
	// Regression / Improvement report whether the shift cleared the gate
	// in the slower / faster direction.
	Regression  bool `json:"regression"`
	Improvement bool `json:"improvement"`
	// Missing marks a configuration present in only one report: "old"
	// (dropped from the new run) or "new" (added since the baseline).
	Missing string `json:"missing,omitempty"`
	// ProfileWarnings are warn-only hot-path shifts from the continuous-
	// profiling sentinel — kernel share falling or walker overhead rising
	// beyond sampling noise. They never flip Regression (wall clock owns
	// the gate); they explain it, or flag erosion the medians hide. Empty
	// when either report lacks the profile signal (e.g. an older baseline).
	ProfileWarnings []string `json:"profile_warnings,omitempty"`
}

// Compare matches the two reports' runs by benchmark/engine and applies the
// gate to each pair. Configurations present in only one report are included
// with Missing set. The result is sorted: regressions first (largest
// relative shift first), then improvements, then the rest.
func Compare(old, new *Report, g Gate) []Delta {
	oldRuns := old.ByKey()
	newRuns := new.ByKey()
	keys := make([]string, 0, len(oldRuns)+len(newRuns))
	for k := range oldRuns {
		keys = append(keys, k)
	}
	for k := range newRuns {
		if _, ok := oldRuns[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)

	out := make([]Delta, 0, len(keys))
	for _, k := range keys {
		o, haveOld := oldRuns[k]
		n, haveNew := newRuns[k]
		switch {
		case !haveNew:
			out = append(out, Delta{
				Benchmark: o.Benchmark, Engine: o.Engine,
				OldMedian: o.Wall.MedianSeconds, OldMAD: o.Wall.MADSeconds,
				Missing: "new",
			})
		case !haveOld:
			out = append(out, Delta{
				Benchmark: n.Benchmark, Engine: n.Engine,
				NewMedian: n.Wall.MedianSeconds, NewMAD: n.Wall.MADSeconds,
				Missing: "old",
			})
		default:
			d := Delta{
				Benchmark: n.Benchmark, Engine: n.Engine,
				OldMedian: o.Wall.MedianSeconds, NewMedian: n.Wall.MedianSeconds,
				OldMAD: o.Wall.MADSeconds, NewMAD: n.Wall.MADSeconds,
			}
			if d.OldMedian > 0 {
				d.Rel = (d.NewMedian - d.OldMedian) / d.OldMedian
			}
			d.Regression = g.exceeds(d.OldMedian, d.NewMedian-d.OldMedian, d.OldMAD, d.NewMAD)
			d.Improvement = g.exceeds(d.NewMedian, d.OldMedian-d.NewMedian, d.OldMAD, d.NewMAD)
			d.ProfileWarnings = profileWarnings(o.Profile, n.Profile)
			out = append(out, d)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return rank(out[i]) < rank(out[j]) ||
			rank(out[i]) == rank(out[j]) && out[i].Rel > out[j].Rel
	})
	return out
}

func rank(d Delta) int {
	switch {
	case d.Regression:
		return 0
	case d.Improvement:
		return 1
	case d.Missing != "":
		return 2
	default:
		return 3
	}
}

// profileWarnings runs the hot-path sentinel over the two profile signals,
// nil-safe on both sides (baselines recorded before the signal existed
// simply produce no warnings).
func profileWarnings(old, new *ProfileSignal) []string {
	if old == nil || new == nil {
		return nil
	}
	toReport := func(s *ProfileSignal) *profile.Report {
		return &profile.Report{
			CPUSeconds:  s.CPUSeconds,
			Samples:     s.Samples,
			KernelShare: s.KernelShare,
			WalkerShare: s.WalkerShare,
			PhaseShares: s.PhaseShares,
		}
	}
	var out []string
	for _, f := range profile.Compare(toReport(old), toReport(new)) {
		out = append(out, f.Message)
	}
	return out
}

// Regressions filters the comparison down to gated regressions.
func Regressions(deltas []Delta) []Delta {
	var out []Delta
	for _, d := range deltas {
		if d.Regression {
			out = append(out, d)
		}
	}
	return out
}

func (d Delta) verdict() string {
	switch {
	case d.Missing == "new":
		return "GONE"
	case d.Missing == "old":
		return "NEW"
	case d.Regression:
		return "REGRESSION"
	case d.Improvement:
		return "improved"
	default:
		return "ok"
	}
}

// WriteText renders the comparison as an aligned terminal table.
func WriteText(w io.Writer, deltas []Delta) {
	fmt.Fprintf(w, "%-12s %-6s %12s %12s %8s %10s  %s\n",
		"benchmark", "engine", "old median", "new median", "delta", "noise", "verdict")
	for _, d := range deltas {
		if d.Missing != "" {
			fmt.Fprintf(w, "%-12s %-6s %12s %12s %8s %10s  %s\n",
				d.Benchmark, d.Engine, ms(d.OldMedian), ms(d.NewMedian), "-", "-", d.verdict())
			continue
		}
		mad := d.OldMAD
		if d.NewMAD > mad {
			mad = d.NewMAD
		}
		fmt.Fprintf(w, "%-12s %-6s %12s %12s %+7.1f%% %10s  %s\n",
			d.Benchmark, d.Engine, ms(d.OldMedian), ms(d.NewMedian), 100*d.Rel,
			"±"+ms(mad), d.verdict())
		for _, warn := range d.ProfileWarnings {
			fmt.Fprintf(w, "%-12s %-6s   profile warning: %s\n", "", "", warn)
		}
	}
}

// WriteMarkdown renders the comparison as a GitHub-flavored markdown table
// (for CI job summaries).
func WriteMarkdown(w io.Writer, deltas []Delta) {
	fmt.Fprintln(w, "| benchmark | engine | old median | new median | delta | noise (max MAD) | verdict |")
	fmt.Fprintln(w, "|---|---|---:|---:|---:|---:|---|")
	for _, d := range deltas {
		if d.Missing != "" {
			fmt.Fprintf(w, "| %s | %s | %s | %s | - | - | %s |\n",
				d.Benchmark, d.Engine, ms(d.OldMedian), ms(d.NewMedian), d.verdict())
			continue
		}
		mad := d.OldMAD
		if d.NewMAD > mad {
			mad = d.NewMAD
		}
		verdict := d.verdict()
		if d.Regression {
			verdict = "**" + verdict + "**"
		}
		if len(d.ProfileWarnings) > 0 {
			verdict += " ⚠ " + strings.Join(d.ProfileWarnings, "; ")
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s | %+.1f%% | ±%s | %s |\n",
			d.Benchmark, d.Engine, ms(d.OldMedian), ms(d.NewMedian), 100*d.Rel, ms(mad), verdict)
	}
}

// ms formats seconds as milliseconds with sensible precision.
func ms(sec float64) string {
	if sec == 0 {
		return "-"
	}
	v := sec * 1e3
	switch {
	case v < 10:
		return fmt.Sprintf("%.2fms", v)
	case v < 1000:
		return fmt.Sprintf("%.1fms", v)
	default:
		return fmt.Sprintf("%.2fs", sec)
	}
}
