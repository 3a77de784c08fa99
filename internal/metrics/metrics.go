// Package metrics is a dependency-free observability registry: named
// counters, gauges and fixed-bucket histograms with an atomic hot path,
// rendered as Prometheus text exposition format or JSON. It is the
// instrumentation substrate of the production soak harness: the transport
// server, the scheduler, the client block cache and the durability layer
// all record into a Registry, and cmifd exposes one over HTTP.
//
// Design constraints, in order:
//
//  1. The record path (Counter.Inc, Gauge.Set, Histogram.Observe) must be
//     cheap enough to sit on every request — single atomic ops, no locks,
//     no allocation.
//  2. No dependencies beyond the standard library.
//  3. Quantiles (p50/p99/p999) come from fixed exponential buckets, so
//     they cost nothing at record time and are estimated only when read.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the Prometheus semantics to
// hold; Add does not enforce it).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value that can move both ways (in-flight
// requests, queue depth, live WAL bytes).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value reads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates observations into fixed buckets, from which
// quantiles are estimated at read time. Observations are in seconds
// (Observe takes a time.Duration and converts); bucket bounds are upper
// bounds in seconds, strictly increasing, with an implicit +Inf bucket at
// the end.
type Histogram struct {
	bounds []float64 // upper bounds, seconds
	counts []atomic.Int64
	sumNS  atomic.Int64 // total observed time in nanoseconds
	count  atomic.Int64
}

// DefaultLatencyBuckets covers 10µs to ~84s in factor-of-two steps — wide
// enough for in-memory ops at the fast end and queue-saturated requests at
// the slow end, narrow enough that interpolated p99s stay meaningful.
func DefaultLatencyBuckets() []float64 {
	bounds := make([]float64, 24)
	b := 10e-6
	for i := range bounds {
		bounds[i] = b
		b *= 2
	}
	return bounds
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets()
	}
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.ObserveSeconds(d.Seconds())
}

// ObserveSeconds records one observation already expressed in seconds.
func (h *Histogram) ObserveSeconds(s float64) {
	h.sumNS.Add(int64(s * float64(time.Second)))
	h.count.Add(1)
	// Binary search beats linear scan only past ~32 buckets; with ~24
	// bounds the branch-predictable linear scan wins and stays simple.
	for i, b := range h.bounds {
		if s <= b {
			h.counts[i].Add(1)
			return
		}
	}
	h.counts[len(h.bounds)].Add(1)
}

// Count reports how many observations the histogram has absorbed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum reports the total observed time.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNS.Load()) }

// Quantile estimates the q-quantile (0 < q < 1) in seconds by linear
// interpolation inside the bucket where the cumulative count crosses
// q*total. The +Inf bucket reports the largest finite bound (the estimate
// cannot exceed what the buckets can represent). Zero observations
// estimate 0.
func (h *Histogram) Quantile(q float64) float64 {
	total := int64(0)
	counts := make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := int64(0)
	for i, c := range counts {
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i == len(h.bounds) {
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		if c == 0 {
			return hi
		}
		frac := (rank - float64(prev)) / float64(c)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		return lo + (hi-lo)*frac
	}
	return h.bounds[len(h.bounds)-1]
}

// metricKind discriminates the registry's value types.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// metric is one registered instrument: a base name, optional constant
// labels (rendered Prometheus-style), help text and the typed value.
type metric struct {
	name   string // base name, e.g. cmif_requests_total
	labels string // rendered label set, e.g. {op="getblks"}, or ""
	help   string
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// key is the registry map key: base name plus rendered labels.
func (m *metric) key() string { return m.name + m.labels }

// Registry holds named metrics. Lookups lock; the returned instruments
// record lock-free, so the idiom is to resolve instruments once at
// construction time and hold the pointers.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
	order   []*metric // registration order, for stable rendering
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// renderLabels formats name/value pairs as a Prometheus label set. Pairs
// must come in name, value order; stray odd arguments are dropped.
func renderLabels(pairs []string) string {
	if len(pairs) < 2 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", pairs[i], pairs[i+1])
	}
	sb.WriteByte('}')
	return sb.String()
}

// lookup finds or creates the metric under name+labels, enforcing kind
// agreement: re-registering an existing name with a different kind panics,
// since it is always a programming error.
func (r *Registry) lookup(name, help string, kind metricKind, bounds []float64, labelPairs []string) *metric {
	labels := renderLabels(labelPairs)
	r.mu.Lock()
	defer r.mu.Unlock()
	key := name + labels
	if m, ok := r.metrics[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("metrics: %s re-registered with a different kind", key))
		}
		return m
	}
	m := &metric{name: name, labels: labels, help: help, kind: kind}
	switch kind {
	case kindCounter:
		m.c = &Counter{}
	case kindGauge:
		m.g = &Gauge{}
	case kindHistogram:
		m.h = newHistogram(bounds)
	}
	r.metrics[key] = m
	r.order = append(r.order, m)
	return m
}

// Counter returns the counter registered under name (creating it on first
// use). Optional labelPairs attach a constant label set (name, value,
// name, value, ...), so per-op variants of one family share a base name.
func (r *Registry) Counter(name, help string, labelPairs ...string) *Counter {
	return r.lookup(name, help, kindCounter, nil, labelPairs).c
}

// Gauge returns the gauge registered under name (creating it on first use).
func (r *Registry) Gauge(name, help string, labelPairs ...string) *Gauge {
	return r.lookup(name, help, kindGauge, nil, labelPairs).g
}

// Histogram returns the histogram registered under name with the default
// latency buckets (creating it on first use).
func (r *Registry) Histogram(name, help string, labelPairs ...string) *Histogram {
	return r.lookup(name, help, kindHistogram, nil, labelPairs).h
}

// HistogramBuckets is Histogram with explicit upper bounds (seconds,
// strictly increasing). Bounds are fixed at first registration; later
// lookups of the same name return the existing instrument.
func (r *Registry) HistogramBuckets(name, help string, bounds []float64, labelPairs ...string) *Histogram {
	return r.lookup(name, help, kindHistogram, bounds, labelPairs).h
}

// snapshotMetrics copies the metric list under the lock; values are read
// atomically afterwards, so a snapshot is consistent per-instrument, not
// across instruments — fine for monitoring.
func (r *Registry) snapshotMetrics() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*metric, len(r.order))
	copy(out, r.order)
	return out
}

// HistogramSnapshot is one histogram's point-in-time summary.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum_seconds"`
	P50   float64 `json:"p50_seconds"`
	P99   float64 `json:"p99_seconds"`
	P999  float64 `json:"p999_seconds"`
}

// Snapshot is a registry's point-in-time state, keyed by metric name plus
// rendered labels — the JSON face of the /metrics endpoint.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every registered metric.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	for _, m := range r.snapshotMetrics() {
		switch m.kind {
		case kindCounter:
			snap.Counters[m.key()] = m.c.Value()
		case kindGauge:
			snap.Gauges[m.key()] = m.g.Value()
		case kindHistogram:
			snap.Histograms[m.key()] = HistogramSnapshot{
				Count: m.h.Count(),
				Sum:   m.h.Sum().Seconds(),
				P50:   m.h.Quantile(0.50),
				P99:   m.h.Quantile(0.99),
				P999:  m.h.Quantile(0.999),
			}
		}
	}
	return snap
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers per family, then one sample
// line per instrument — histogram instruments expand into cumulative
// _bucket lines plus _sum and _count.
func (r *Registry) WritePrometheus(sb *strings.Builder) {
	ms := r.snapshotMetrics()
	// Families must render contiguously (one HELP/TYPE header each), so
	// group by base name while keeping first-registration order.
	byName := map[string][]*metric{}
	var names []string
	for _, m := range ms {
		if _, ok := byName[m.name]; !ok {
			names = append(names, m.name)
		}
		byName[m.name] = append(byName[m.name], m)
	}
	for _, name := range names {
		family := byName[name]
		first := family[0]
		if first.help != "" {
			fmt.Fprintf(sb, "# HELP %s %s\n", name, first.help)
		}
		switch first.kind {
		case kindCounter:
			fmt.Fprintf(sb, "# TYPE %s counter\n", name)
			for _, m := range family {
				fmt.Fprintf(sb, "%s%s %d\n", m.name, m.labels, m.c.Value())
			}
		case kindGauge:
			fmt.Fprintf(sb, "# TYPE %s gauge\n", name)
			for _, m := range family {
				fmt.Fprintf(sb, "%s%s %d\n", m.name, m.labels, m.g.Value())
			}
		case kindHistogram:
			fmt.Fprintf(sb, "# TYPE %s histogram\n", name)
			for _, m := range family {
				writePrometheusHistogram(sb, m)
			}
		}
	}
}

// writePrometheusHistogram renders one histogram instrument's cumulative
// bucket lines. The le label merges with any constant labels.
func writePrometheusHistogram(sb *strings.Builder, m *metric) {
	inner := strings.TrimSuffix(strings.TrimPrefix(m.labels, "{"), "}")
	leLabel := func(le string) string {
		if inner == "" {
			return fmt.Sprintf("{le=%q}", le)
		}
		return fmt.Sprintf("{%s,le=%q}", inner, le)
	}
	cum := int64(0)
	for i, b := range m.h.bounds {
		cum += m.h.counts[i].Load()
		fmt.Fprintf(sb, "%s_bucket%s %d\n", m.name, leLabel(formatBound(b)), cum)
	}
	cum += m.h.counts[len(m.h.bounds)].Load()
	fmt.Fprintf(sb, "%s_bucket%s %d\n", m.name, leLabel("+Inf"), cum)
	fmt.Fprintf(sb, "%s_sum%s %g\n", m.name, m.labels, m.h.Sum().Seconds())
	fmt.Fprintf(sb, "%s_count%s %d\n", m.name, m.labels, m.h.Count())
}

// formatBound renders a bucket bound without float noise.
func formatBound(b float64) string {
	if b == math.Trunc(b) && math.Abs(b) < 1e15 {
		return fmt.Sprintf("%d", int64(b))
	}
	return fmt.Sprintf("%g", b)
}

// Prometheus renders the registry as a Prometheus text page.
func (r *Registry) Prometheus() string {
	var sb strings.Builder
	r.WritePrometheus(&sb)
	return sb.String()
}

// CounterTotals returns the counters sorted by key — the shape cmifd logs
// at shutdown so soak runs ending in SIGTERM still report complete
// numbers.
func (r *Registry) CounterTotals() []string {
	snap := r.Snapshot()
	keys := make([]string, 0, len(snap.Counters))
	for k := range snap.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = fmt.Sprintf("%s=%d", k, snap.Counters[k])
	}
	return out
}
