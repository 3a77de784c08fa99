package durable

import "repro/internal/metrics"

// Instrument mirrors the log's activity into reg:
//
//	cmif_wal_append_seconds      histogram  append lag: frame + write + policy fsync
//	cmif_wal_appends_total       counter    records appended
//	cmif_wal_live_bytes          gauge      WAL bytes not yet covered by a snapshot
//	cmif_snapshots_total         counter    snapshots landed
//	cmif_snapshot_bytes          gauge      size of the last landed snapshot
//	cmif_bytes_saved_total       counter    {reason="dedupe"}: payload bytes a block's
//	                                        first snapshot cut found on chunks of
//	                                        blocks still stored
//
// Instrument before attaching the log to a server; the mirrored
// instruments start at zero, so Stats and the metrics agree only on
// activity after the call. The append-path cost when instrumented is one
// clock read and a few atomic adds.
func (l *Log) Instrument(reg *metrics.Registry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.mAppends = reg.Counter("cmif_wal_appends_total", "records appended to the write-ahead log")
	l.mAppendSec = reg.Histogram("cmif_wal_append_seconds", "WAL append lag: frame, write and policy fsync")
	l.mWALBytes = reg.Gauge("cmif_wal_live_bytes", "WAL bytes not yet covered by a snapshot")
	l.mSnapshots = reg.Counter("cmif_snapshots_total", "snapshots landed")
	l.mSnapBytes = reg.Gauge("cmif_snapshot_bytes", "size of the last landed snapshot")
	l.cuts.saved = reg.Counter("cmif_bytes_saved_total",
		"bytes not moved or stored thanks to wire saturation", "reason", "dedupe")
	l.mWALBytes.Set(l.walBytes)
}
