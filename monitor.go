package pochoir

import (
	"net/http"

	"pochoir/internal/metrics"
)

// MetricsRegistry is the live metrics registry: a set of Prometheus-style
// counters, gauges, and histograms that armed runs update lock-free and a
// monitor scrapes at any moment. The walker's counters advance once per walk
// (once per supervised segment attempt); progress and the active run and
// worker gauges move mid-run. Pass one via Options.Metrics to instrument
// every Run/RunSupervised of a stencil, and expose it with ServeMonitor or
// MonitorHandler. One registry may be shared by any number of stencils.
type MetricsRegistry = metrics.Registry

// NewMetrics creates an empty metrics registry.
func NewMetrics() *MetricsRegistry { return metrics.NewRegistry() }

// Monitor is the embedded monitor HTTP server; see ServeMonitor.
type Monitor = metrics.Monitor

// ProgressStat is the JSON view of one run's live progress, served by the
// monitor at /progressz and available via MetricsRegistry.ProgressSnapshot.
type ProgressStat = metrics.ProgressStat

// ServeMonitor starts an embedded HTTP server exposing the registry:
//
//	/metrics        Prometheus text exposition
//	/statusz        JSON snapshot of every metric + process vitals
//	/progressz      live percent-complete and ETA of in-flight runs
//	/debug/pprof/   the standard Go runtime profiles
//	/debug/vars     expvar
//
// addr is a TCP listen address; use port 0 to pick a free port (the bound
// address is available from Monitor.Addr). The server runs in the
// background until Monitor.Close.
func ServeMonitor(addr string, reg *MetricsRegistry) (*Monitor, error) {
	return metrics.Serve(addr, reg)
}

// MonitorHandler returns the monitor's http.Handler for mounting on an
// existing server instead of ServeMonitor's embedded one.
func MonitorHandler(reg *MetricsRegistry) http.Handler {
	return metrics.NewHandler(reg)
}

// CheckMetricsExposition validates Prometheus text-format bytes line by
// line — metric and label names, label quoting, sample values, and that
// every sample follows its family's TYPE declaration. The monitor smoke
// test runs every scrape through it.
func CheckMetricsExposition(data []byte) error {
	return metrics.CheckExposition(data)
}

// runMetrics returns the walker instrument set of the configured registry,
// which resolves it once for every stencil; nil when Options.Metrics is
// unset.
func (s *Stencil[T]) runMetrics() *metrics.RunMetrics {
	if s.opts.Metrics == nil {
		return nil
	}
	return metrics.NewRunMetrics(s.opts.Metrics)
}

// progressLabel resolves the label for this stencil's progress entries:
// Options.ProgressLabel when set, the caller's default otherwise.
func (s *Stencil[T]) progressLabel(def string) string {
	if s.opts.ProgressLabel != "" {
		return s.opts.ProgressLabel
	}
	return def
}

// gridVolume returns the number of spatial points per time step. The
// decomposition partitions the space-time box exactly, so a run of n steps
// executes exactly n*gridVolume base-case points — the progress
// estimator's predicted total.
func (s *Stencil[T]) gridVolume() int64 {
	v := int64(1)
	for _, n := range s.sizes {
		v *= int64(n)
	}
	return v
}
