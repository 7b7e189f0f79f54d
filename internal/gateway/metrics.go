package gateway

import (
	"sync"

	"pochoir/internal/metrics"
)

// gwMetrics is the gateway's instrument set in the shared registry. The
// per-tenant, per-reason, per-priority and per-outcome families are
// materialized lazily, so a new tenant's first submission mints its counter,
// and then cached, so later jobs pay a map read instead of a registration.
type gwMetrics struct {
	admitted   *metrics.Counter
	coalesced  *metrics.Counter
	queueDepth *metrics.Gauge
	running    *metrics.Gauge
	latencyMS  *metrics.Histogram

	// submitted counts submissions per tenant, accepted or not.
	submitted series[*metrics.Counter]
	// shed counts load-shed submissions per reason.
	shed series[*metrics.Counter]
	// queueWait is the queue-wait histogram per priority. The exemplar on
	// each bucket names the trace of a recent job that landed there, so a
	// slow wait in /metrics resolves to its waterfall at /tracez.
	queueWait series[*metrics.Histogram]
	// tenantCPU is the attributed CPU per tenant the profiler's report
	// callback accumulates into: a gauge rather than a counter because
	// attributed CPU is fractional seconds; it only ever increases.
	tenantCPU series[*metrics.Gauge]
	// completed counts jobs reaching a terminal state per outcome.
	completed series[*metrics.Counter]
}

func newGwMetrics(reg *metrics.Registry) *gwMetrics {
	return &gwMetrics{
		admitted: reg.Counter("pochoir_gateway_jobs_admitted_total",
			"Jobs accepted into the bounded queue."),
		coalesced: reg.Counter("pochoir_gateway_jobs_coalesced_total",
			"Submissions joined onto an identical in-flight job."),
		queueDepth: reg.Gauge("pochoir_gateway_queue_depth",
			"Jobs admitted but not yet running."),
		running: reg.Gauge("pochoir_gateway_jobs_running",
			"Jobs currently executing on the worker pool."),
		latencyMS: reg.Histogram("pochoir_gateway_job_latency_ms",
			"End-to-end job latency (submit to terminal state), milliseconds.", 24),
		submitted: series[*metrics.Counter]{resolve: func(tenant string) *metrics.Counter {
			return reg.Counter("pochoir_gateway_jobs_submitted_total",
				"Job submissions received, accepted or not.",
				metrics.Label{Key: "tenant", Value: tenant})
		}},
		shed: series[*metrics.Counter]{resolve: func(reason string) *metrics.Counter {
			return reg.Counter("pochoir_gateway_jobs_shed_total",
				"Submissions refused by admission control.",
				metrics.Label{Key: "reason", Value: reason})
		}},
		queueWait: series[*metrics.Histogram]{resolve: func(priority string) *metrics.Histogram {
			return reg.Histogram("pochoir_gateway_queue_wait_ms",
				"Time jobs spent queued before a worker picked them up, milliseconds.", 24,
				metrics.Label{Key: "priority", Value: priority})
		}},
		tenantCPU: series[*metrics.Gauge]{resolve: func(tenant string) *metrics.Gauge {
			return reg.Gauge("pochoir_tenant_cpu_seconds_total",
				"Cumulative CPU seconds attributed to each tenant by the continuous profiler.",
				metrics.Label{Key: "tenant", Value: tenant})
		}},
		completed: series[*metrics.Counter]{resolve: func(outcome string) *metrics.Counter {
			return reg.Counter("pochoir_gateway_jobs_completed_total",
				"Jobs reaching a terminal state.",
				metrics.Label{Key: "outcome", Value: outcome})
		}},
	}
}

// series is one labeled family's members by label value, each resolved
// against the registry on its first use.
type series[M any] struct {
	resolve func(value string) M

	mu sync.Mutex
	by map[string]M
}

// get returns the family member labeled value.
func (s *series[M]) get(value string) M {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.by[value]
	if !ok {
		if s.by == nil {
			s.by = make(map[string]M)
		}
		m = s.resolve(value)
		s.by[value] = m
	}
	return m
}
