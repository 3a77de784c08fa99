package transport

import (
	"time"

	"repro/internal/metrics"
)

// serverMetrics is the transport server's instrument set, resolved once
// against a metrics.Registry so the per-request path touches only
// atomics. Every method is nil-receiver safe: an uninstrumented server
// pays a single predictable branch.
//
// Metric names (see docs/ARCHITECTURE.md, scale layer 5):
//
//	cmif_connections_open          gauge      open client connections
//	cmif_requests_total{op}        counter    requests received, by op
//	cmif_request_seconds{op}       histogram  admitted-request latency, by op
//	cmif_inflight_requests         gauge      requests currently executing
//	cmif_admission_queue_depth     gauge      requests waiting for a slot
//	cmif_busy_rejections_total{reason} counter sheds: conn_inflight,
//	                                          queue_full, queue_timeout,
//	                                          sub_slow, subs_full
//	cmif_subscribers_active        gauge      live document subscriptions
//	cmif_deltas_pushed_total       counter    change deltas fanned out
//	cmif_delta_fanout_seconds      histogram  edit-broadcast → frame handoff lag
type serverMetrics struct {
	conns      *metrics.Gauge
	inflight   *metrics.Gauge
	queueDepth *metrics.Gauge

	requests       map[byte]*metrics.Counter
	opSeconds      map[byte]*metrics.Histogram
	requestsOther  *metrics.Counter
	opSecondsOther *metrics.Histogram

	busyConnInflight *metrics.Counter
	busyQueueFull    *metrics.Counter
	busyQueueTimeout *metrics.Counter
	busySubSlow      *metrics.Counter
	busySubsFull     *metrics.Counter

	subscribers *metrics.Gauge
	deltas      *metrics.Counter
	deltaLag    *metrics.Histogram

	framesCompressed   *metrics.Counter
	bytesSavedCompress *metrics.Counter
	compressRatio      *metrics.Histogram
}

// opNames maps the request ops the server handles to their label values.
var opNames = map[byte]string{
	opGetDoc:       "getdoc",
	opPutDoc:       "putdoc",
	opGetBlks:      "getblks",
	opGetDescs:     "getdescs",
	opPutBlk:       "putblk",
	opList:         "list",
	opGetBlkStream: "getblkstream",
	opSubscribe:    "subscribe",
	opUnsubscribe:  "unsubscribe",
	opSubmitEdit:   "submitedit",
}

// newServerMetrics resolves the server instrument set in reg.
func newServerMetrics(reg *metrics.Registry) *serverMetrics {
	m := &serverMetrics{
		conns:      reg.Gauge("cmif_connections_open", "open client connections"),
		inflight:   reg.Gauge("cmif_inflight_requests", "requests currently executing"),
		queueDepth: reg.Gauge("cmif_admission_queue_depth", "requests waiting for an admission slot"),
		requests:   map[byte]*metrics.Counter{},
		opSeconds:  map[byte]*metrics.Histogram{},
		busyConnInflight: reg.Counter("cmif_busy_rejections_total",
			"requests shed with a busy error", "reason", "conn_inflight"),
		busyQueueFull: reg.Counter("cmif_busy_rejections_total",
			"requests shed with a busy error", "reason", "queue_full"),
		busyQueueTimeout: reg.Counter("cmif_busy_rejections_total",
			"requests shed with a busy error", "reason", "queue_timeout"),
		busySubSlow: reg.Counter("cmif_busy_rejections_total",
			"requests shed with a busy error", "reason", "sub_slow"),
		busySubsFull: reg.Counter("cmif_busy_rejections_total",
			"requests shed with a busy error", "reason", "subs_full"),
		subscribers: reg.Gauge("cmif_subscribers_active", "live document subscriptions"),
		deltas:      reg.Counter("cmif_deltas_pushed_total", "change deltas fanned out to subscribers"),
		deltaLag:    reg.Histogram("cmif_delta_fanout_seconds", "edit broadcast to frame handoff lag"),
		framesCompressed: reg.Counter("cmif_frames_compressed_total",
			"response frames shipped deflated (protocol v4)"),
		bytesSavedCompress: reg.Counter("cmif_bytes_saved_total",
			"bytes not moved or stored thanks to wire saturation", "reason", "compress"),
		compressRatio: reg.HistogramBuckets("cmif_compress_ratio",
			"compressed/raw frame size ratio",
			[]float64{0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95}),
	}
	for op, name := range opNames {
		m.requests[op] = reg.Counter("cmif_requests_total", "requests received", "op", name)
		m.opSeconds[op] = reg.Histogram("cmif_request_seconds", "request latency", "op", name)
	}
	m.requestsOther = reg.Counter("cmif_requests_total", "requests received", "op", "other")
	m.opSecondsOther = reg.Histogram("cmif_request_seconds", "request latency", "op", "other")
	return m
}

func (m *serverMetrics) connOpened() {
	if m != nil {
		m.conns.Add(1)
	}
}

func (m *serverMetrics) connClosed() {
	if m != nil {
		m.conns.Add(-1)
	}
}

// countRequest tallies one received request by op.
func (m *serverMetrics) countRequest(op byte) {
	if m == nil {
		return
	}
	if c, ok := m.requests[op]; ok {
		c.Inc()
		return
	}
	m.requestsOther.Inc()
}

// observe records one admitted request's latency — queue wait plus
// service time, the delay the client actually saw.
func (m *serverMetrics) observe(op byte, start time.Time) {
	if m == nil {
		return
	}
	d := time.Since(start)
	if h, ok := m.opSeconds[op]; ok {
		h.Observe(d)
		return
	}
	m.opSecondsOther.Observe(d)
}

func (m *serverMetrics) inflightAdd(delta int64) {
	if m != nil {
		m.inflight.Add(delta)
	}
}

func (m *serverMetrics) queueDepthSet(depth int64) {
	if m != nil {
		m.queueDepth.Set(depth)
	}
}

// shed tallies one busy rejection by reason.
func (m *serverMetrics) shed(reason string) {
	if m == nil {
		return
	}
	switch reason {
	case shedConnInflight:
		m.busyConnInflight.Inc()
	case shedQueueFull:
		m.busyQueueFull.Inc()
	case shedQueueTimeout:
		m.busyQueueTimeout.Inc()
	case shedSubSlow:
		m.busySubSlow.Inc()
	case shedSubsFull:
		m.busySubsFull.Inc()
	}
}

// subscriberAdd moves the active-subscription gauge.
func (m *serverMetrics) subscriberAdd(delta int64) {
	if m != nil {
		m.subscribers.Add(delta)
	}
}

// deltaPushed tallies one fanned-out change delta and its hub-to-wire
// handoff lag.
func (m *serverMetrics) deltaPushed(lag time.Duration) {
	if m == nil {
		return
	}
	m.deltas.Inc()
	m.deltaLag.Observe(lag)
}

// frameCompressed records one response frame that actually shipped
// deflated: raw is the plain encoding's wire size, wire the envelope's.
func (m *serverMetrics) frameCompressed(raw, wire int64) {
	if m == nil {
		return
	}
	m.framesCompressed.Inc()
	m.bytesSavedCompress.Add(raw - wire)
	m.compressRatio.ObserveSeconds(float64(wire) / float64(raw))
}
