package transport

import (
	"sync/atomic"
	"time"
)

// Admission configures server-wide admission control: a bound on how many
// requests may execute at once across every connection, a bound on how
// many more may queue for a slot, and a bound on how long a queued
// request may wait before it is shed.
//
// The point is graceful overload degradation. Without admission control an
// overloaded server accepts everything, queues grow without bound inside
// the runtime, and every request's latency collapses together. With it,
// the server does bounded work at bounded latency and sheds the excess
// promptly with a busy error (opErrBusy), which clients surface as the
// typed ErrBusy — a signal to back off and retry, cheap for both sides.
//
// The zero value disables admission control (per-connection pipelining
// bounds still apply).
type Admission struct {
	// MaxConcurrent bounds requests executing simultaneously across the
	// whole server. Zero or negative disables admission control.
	MaxConcurrent int
	// MaxQueue bounds requests waiting for an execution slot beyond
	// MaxConcurrent; a request arriving with the queue full is shed
	// immediately. Zero means no queue: the server sheds as soon as every
	// slot is busy.
	MaxQueue int
	// MaxWait bounds how long a queued request may wait for a slot. This
	// is the deadline-aware half of shedding: during a sustained overload
	// a queued request would be served far too late to be useful, so
	// after MaxWait it is shed with the same fast busy error instead of
	// occupying the queue. Zero means DefaultAdmissionWait.
	MaxWait time.Duration
	// MaxSubscribers bounds live-document subscriptions across the
	// whole server; an opSubscribe past the bound is shed
	// with opErrBusy (reason subs_full). Independent of MaxConcurrent —
	// a subscription occupies an admission slot only while its snapshot
	// is produced and written, not for its whole lifetime. Zero means
	// unlimited.
	MaxSubscribers int
}

// DefaultAdmissionWait bounds queued-request waiting when Admission.MaxWait
// is zero: long enough to ride out a burst, short enough that shed
// responses still arrive promptly during sustained overload.
const DefaultAdmissionWait = 100 * time.Millisecond

// Enabled reports whether the configuration asks for admission control.
func (a Admission) Enabled() bool { return a.MaxConcurrent > 0 }

// Shed reasons, used as the busy-rejection metric label and in the busy
// response text.
const (
	shedConnInflight = "conn_inflight"
	shedQueueFull    = "queue_full"
	shedQueueTimeout = "queue_timeout"
)

// admitter enforces one Admission configuration. The admitted path costs
// one channel send and one receive; the shed path never blocks longer
// than MaxWait. A nil admitter admits everything.
type admitter struct {
	cfg    Admission
	slots  chan struct{}
	queued atomic.Int64
	m      *ServerMetrics
}

// newAdmitter builds the enforcement state; nil when cfg disables it.
func newAdmitter(cfg Admission, m *ServerMetrics) *admitter {
	if !cfg.Enabled() {
		return nil
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = DefaultAdmissionWait
	}
	return &admitter{cfg: cfg, slots: make(chan struct{}, cfg.MaxConcurrent), m: m}
}

// acquire claims an execution slot. On admission it returns a non-empty
// release closure; on shed it returns the reason (shedQueueFull or
// shedQueueTimeout) and a nil release. Shed accounting happens here so
// every serve loop shares it.
func (a *admitter) acquire() (release func(), shedReason string) {
	if a == nil {
		return func() {}, ""
	}
	select {
	case a.slots <- struct{}{}:
		return a.release, ""
	default:
	}
	// Every slot is busy: join the bounded queue.
	if q := a.queued.Add(1); q > int64(a.cfg.MaxQueue) {
		a.m.queueDepthSet(a.queued.Add(-1))
		a.m.shed(shedQueueFull)
		return nil, shedQueueFull
	}
	a.m.queueDepthSet(a.queued.Load())
	timer := time.NewTimer(a.cfg.MaxWait)
	defer timer.Stop()
	select {
	case a.slots <- struct{}{}:
		a.m.queueDepthSet(a.queued.Add(-1))
		return a.release, ""
	case <-timer.C:
		a.m.queueDepthSet(a.queued.Add(-1))
		a.m.shed(shedQueueTimeout)
		return nil, shedQueueTimeout
	}
}

func (a *admitter) release() { <-a.slots }

// busyText renders the busy-response payload for a shed reason.
func busyText(reason string) []byte {
	switch reason {
	case shedQueueFull:
		return []byte("busy: admission queue full")
	case shedQueueTimeout:
		return []byte("busy: queued past the admission wait bound")
	default:
		return []byte("busy: " + reason)
	}
}
