package sched

import (
	"time"

	"repro/internal/metrics"
)

// solverMetrics is the solver's instrument set, resolved once so the
// scheduling path touches only atomics. Nil-receiver safe throughout.
//
// Metric names:
//
//	cmif_schedule_seconds{kind}      histogram  pass latency, kind=full|incremental
//	cmif_schedule_passes_total{kind} counter    passes run, same kinds
//	cmif_schedule_rebuilds_total     counter    falls back to a from-scratch graph build
//	cmif_sched_components            gauge      components in the last solved system
//	cmif_sched_events                gauge      events in the last solved system
type solverMetrics struct {
	fullSec     *metrics.Histogram
	increSec    *metrics.Histogram
	fullPasses  *metrics.Counter
	increPasses *metrics.Counter
	rebuilds    *metrics.Counter
	components  *metrics.Gauge
	events      *metrics.Gauge
}

// Instrument mirrors the solver's activity into reg. Call it once, right
// after NewSolver; the solver is single-goroutine, so no locking is
// involved.
func (s *Solver) Instrument(reg *metrics.Registry) {
	s.m = &solverMetrics{
		fullSec:     reg.Histogram("cmif_schedule_seconds", "scheduling pass latency", "kind", "full"),
		increSec:    reg.Histogram("cmif_schedule_seconds", "scheduling pass latency", "kind", "incremental"),
		fullPasses:  reg.Counter("cmif_schedule_passes_total", "scheduling passes run", "kind", "full"),
		increPasses: reg.Counter("cmif_schedule_passes_total", "scheduling passes run", "kind", "incremental"),
		rebuilds:    reg.Counter("cmif_schedule_rebuilds_total", "from-scratch constraint-graph rebuilds"),
		components:  reg.Gauge("cmif_sched_components", "components in the last solved system"),
		events:      reg.Gauge("cmif_sched_events", "events in the last solved system"),
	}
}

// observePass records one pass: latency under the kind label plus the
// post-pass system size from stats.
func (m *solverMetrics) observePass(full bool, start time.Time, stats SolveStats) {
	if m == nil {
		return
	}
	d := time.Since(start)
	if full {
		m.fullSec.Observe(d)
		m.fullPasses.Inc()
	} else {
		m.increSec.Observe(d)
		m.increPasses.Inc()
	}
	m.components.Set(int64(stats.Components))
	m.events.Set(int64(stats.Events))
}

// now reads the clock for observePass, and only when there is a registry
// to report to.
func (m *solverMetrics) now() time.Time {
	if m == nil {
		return time.Time{}
	}
	return time.Now()
}

func (m *solverMetrics) countRebuild() {
	if m != nil {
		m.rebuilds.Inc()
	}
}
