package pochoir

import "pochoir/internal/metrics"

// RunMetricsOf exposes the walker instrument set a stencil's runs update,
// so external tests can check that stencils on one registry share it.
func RunMetricsOf[T any](s *Stencil[T]) *metrics.RunMetrics { return s.runMetrics() }
