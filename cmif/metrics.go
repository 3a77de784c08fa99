package cmif

import (
	"repro/internal/metrics"
	"repro/internal/transport"
)

// Metrics is a registry of counters, gauges and latency histograms. One
// registry typically serves a whole process: the server instruments
// itself into its own (Server.Metrics), while client-side caches
// (BlockCache.Instrument) and schedulers (WithScheduleMetrics) accept any
// registry — NewMetrics builds a fresh one.
//
// A registry serves its contents three ways: Prometheus text exposition
// (Prometheus, or the cmifd -metrics endpoint), a structured Snapshot
// with read-time p50/p99/p999 quantiles, and an http.Handler for mounting
// wherever the caller already listens.
type Metrics = metrics.Registry

// MetricsSnapshot is a point-in-time reading of a registry: counter and
// gauge values plus per-histogram count, sum and quantiles. It marshals
// to JSON in the shape the -metrics endpoint serves under ?format=json.
type MetricsSnapshot = metrics.Snapshot

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics { return metrics.NewRegistry() }

// AdmissionConfig bounds server-wide concurrency: MaxConcurrent requests
// executing at once, MaxQueue more waiting for a slot, MaxWait per queued
// request before it is shed. Excess load is rejected promptly with
// ErrBusy instead of collapsing every request's latency together. The
// zero value disables admission control.
type AdmissionConfig = transport.Admission

// DefaultAdmissionWait is the queue-wait bound when AdmissionConfig
// leaves MaxWait zero.
const DefaultAdmissionWait = transport.DefaultAdmissionWait

// WithAdmission enables server-wide admission control. Under overload the
// server executes at most a.MaxConcurrent requests, queues at most
// a.MaxQueue more (each for at most a.MaxWait), and sheds the rest with a
// fast busy error that clients surface as ErrBusy. Sheds are counted in
// the server's metrics as cmif_busy_rejections_total by reason.
func WithAdmission(a AdmissionConfig) ServingOption {
	return func(c *transport.ServeConfig) { c.Admission = a }
}

// WithServerMetrics registers the server's instruments in reg instead of
// a private registry — useful when one process wants its server, client
// caches and schedulers in a single exposition. Server.Metrics returns
// reg. An edge adds its cmif_edge_* cache and lease series to reg, and a
// cluster node its durability and cmif_cluster_* series.
func WithServerMetrics(reg *Metrics) ServingOption {
	return func(c *transport.ServeConfig) { c.Metrics = reg }
}

// Metrics returns the registry the server's instruments live in: request
// counts and latency by op, in-flight and connection gauges, admission
// queue depth and busy rejections, descriptor-cache effectiveness, and —
// with WithDataDir — WAL append lag, live WAL bytes and snapshot counts.
// Always non-nil; serve it with Metrics.Handler or scrape Prometheus.
func (s *Server) Metrics() *Metrics { return s.srv.Metrics }

// WithScheduleMetrics mirrors the solver's pass activity into reg:
// cmif_schedule_seconds and cmif_schedule_passes_total split by
// full/incremental, graph rebuilds, and the size of the last solved
// system.
func WithScheduleMetrics(reg *Metrics) ScheduleOption {
	return func(c *scheduleConfig) { c.metrics = reg }
}
