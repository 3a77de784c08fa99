package mark

// MetricDef names one reported metric. BENCHMARK.json lists the same
// names, units and bounds; TestBenchmarkJSONMatches keeps the two equal.
type MetricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse; per-layer metrics have none.
	Bound float64
	What  string
}

// EndToEnd lists the metrics an untraced run reports, on every workload.
func EndToEnd() []MetricDef {
	return []MetricDef{
		{"setup_s", "s", "lower", 0.25, "corpus generation + tier start + seeding over the wire + warm-up; median of 3 set-ups"},
		{"ops_per_s", "1/s", "higher", 0.25, "completed correct ops per second; median of 9 consecutive equal-count windows"},
		{"op_p50_ms", "ms", "lower", 0.25, "per-op latency median; median over 9 windows of the per-window value"},
		{"op_p90_ms", "ms", "lower", 0.25, "per-op latency 90th percentile; median over 9 windows of the per-window value"},
		{"cpu_ms_per_op", "ms", "lower", 0.25, "process user+sys CPU (getrusage) over the measured phase / ops"},
		{"wire_bytes_per_op", "B", "lower", 0.01, "client bytes sent+received over the measured phase / ops"},
		{"live_heap_mb", "MB", "lower", 0.10, "HeapAlloc after two forced GCs at the end of the measured phase, tiers and caches live"},
		{"correct_op_ratio", "ratio", "higher", 0.001, "ops that completed and passed the output check / ops attempted (1 - failed_op_ratio)"},
		{"delta_p50_ms", "ms", "lower", 0.25, "SubmitEdit call start to the whole-document follower's Next returning the rescheduled plan; median, windowed like op_p50_ms"},
		{"delta_p90_ms", "ms", "lower", 0.25, "the same, 90th percentile, windowed like op_p90_ms"},
		{"recover_s", "s", "lower", 0.25, "one cmif.LoadDataDir of the run's final data directory; median of 5 samples of at least 0.5 s each"},
		{"disk_bytes_per_user_byte", "ratio", "lower", 0.05, "bytes in the data (and edge cache) directories after graceful Shutdown / user bytes acknowledged"},
	}
}

// PerLayer lists the metrics a traced run reports, on every workload. A
// layer a workload never enters reports 0 there.
func PerLayer() []MetricDef {
	d := func(name, unit, better, what string) MetricDef {
		return MetricDef{Name: name, Unit: unit, Better: better, What: what}
	}
	return []MetricDef{
		d("transport.opendoc_ms_p50", "ms", "lower", "client OpenDoc span, median"),
		d("transport.blocks_ms_p50", "ms", "lower", "client batched block fetch span, median"),
		d("transport.blocks_mb_per_s", "MB/s", "higher", "payload bytes fetched / time inside block fetch spans"),
		d("transport.wire_overhead_ratio", "ratio", "lower", "wire bytes of traced view ops / document text + payload bytes they asked for"),
		d("transport.server_getdoc_ms_p50", "ms", "lower", "front tier's cmif_request_seconds{op=getdoc}, median"),
		d("transport.server_getblks_ms_p50", "ms", "lower", "front tier's cmif_request_seconds{op=getblks}, median"),
		d("transport.dial_ms", "ms", "lower", "connect + handshake of a client connection, median"),
		d("transport.busy_rejections", "count", "lower", "requests shed with ErrBusy by any tier"),
		d("transport.submit_ms_p50", "ms", "lower", "author SubmitEdit round trip, median"),
		d("transport.putblk_ms_p50", "ms", "lower", "author PutBlock round trip of a 64 KiB block, median"),
		d("transport.delta_fanout_ms_p50", "ms", "lower", "origin's cmif_delta_fanout_seconds, median"),
		d("transport.deltas_pushed", "count", "higher", "deltas the origin fanned out"),
		d("transport.sub_resyncs", "count", "lower", "subscription resyncs; must be 0"),
		d("media.getref_ns_p50", "ns", "lower", "probe: Store.GetRef on the workload's blocks"),
		d("media.put_mb_per_s", "MB/s", "higher", "probe: Store.Put of the workload's blocks into a fresh store"),
		d("media.verify_mb_per_s", "MB/s", "higher", "probe: Store.VerifyAll over the workload's blocks"),
		d("media.dedupe_ratio", "ratio", "higher", "origin store logical / unique chunk bytes"),
		d("filter.evaluate_ms_p50", "ms", "lower", "filter.Evaluate span, median"),
		d("filter.apply_ms_p50", "ms", "lower", "filter.Apply span, median"),
		d("filter.apply_mb_per_s", "MB/s", "higher", "payload bytes entering filter.Apply / time inside its spans"),
		d("codec.decode_ms_p50", "ms", "lower", "probe: decode of a workload document's text form"),
		d("codec.encode_ms_p50", "ms", "lower", "probe: encode of a workload document to text"),
		d("codec.doc_bytes", "B", "lower", "mean text size of a workload document"),
		d("core.validate_ms_p50", "ms", "lower", "Document.Validate span, median"),
		d("sched.build_ms_p50", "ms", "lower", "sched.Build span, median"),
		d("sched.solve_ms_p50", "ms", "lower", "Graph.SolveParallel span, median"),
		d("sched.solve_serial_ms_p50", "ms", "lower", "probe: the same graphs through Graph.Solve"),
		d("sched.events_per_op", "count", "lower", "graph events per traced view op"),
		d("sched.constraints_per_op", "count", "lower", "graph constraints per traced view op"),
		d("sched.dropped_arcs_per_op", "count", "lower", "May arcs relaxation dropped per traced view op"),
		d("sched.reschedule_ms_p50", "ms", "lower", "probe: Plan.Reschedule after one author edit on the live document"),
		d("present.map_ms_p50", "ms", "lower", "present.MapDocument span, median"),
		d("player.play_ms_p50", "ms", "lower", "player.Play span, median"),
		d("render.views_ms_p50", "ms", "lower", "the four render.* views, one span, median"),
		d("edge.mem_hit_ratio", "ratio", "higher", "edge block loads answered from memory / all, over the view phases"),
		d("edge.disk_hit_ratio", "ratio", "higher", "edge block loads answered from the disk cache / all"),
		d("edge.upstream_round_trips", "count", "lower", "edge-to-origin round trips during the view phases; 0 once warm"),
		d("edge.diskcache_get_ms_p50", "ms", "lower", "probe: DiskCache.Get of the workload's blocks"),
		d("edge.lease_resyncs", "count", "lower", "edge leases re-snapshotted"),
		d("durable.wal_appends_per_op", "count", "lower", "WAL records appended per author op"),
		d("durable.wal_bytes_per_op", "B", "lower", "WAL bytes appended per author op"),
		d("durable.append_ms_p50", "ms", "lower", "origin's cmif_wal_append_seconds, median"),
		d("durable.snapshots", "count", "lower", "snapshots (each compacts the log) the origin completed"),
		d("durable.snapshot_bytes", "B", "lower", "size of the last snapshot"),
		d("durable.load_mb_per_s", "MB/s", "higher", "data directory bytes / LoadDataDir time"),
		d("chunker.split_mb_per_s", "MB/s", "higher", "probe: chunker.Split over the workload's payloads"),
		d("edit.apply_us_p50", "us", "lower", "probe: one author batch through the edit engine on the live document"),
		d("proc.allocs_per_op", "count", "lower", "heap allocations per op, untraced half"),
		d("proc.alloc_kb_per_op", "KB", "lower", "bytes allocated per op, untraced half"),
		d("proc.gc_pause_ms_total", "ms", "lower", "stop-the-world pause total, untraced half"),
		d("proc.op_p99_ms", "ms", "lower", "per-op latency 99th percentile, untraced half (diagnostic, not gated)"),
		d("proc.peak_rss_mb", "MB", "lower", "getrusage max RSS at exit"),
		d("client.window_spread", "ratio", "lower", "(max-min)/median of the 9 throughput windows: the run's own noise reading"),
		d("trace.overhead_ratio", "ratio", "higher", "traced / untraced ops_per_s within this run"),
		d("trace.op_selftime_ms_p50", "ms", "lower", "per-op sum of span self times, median; compare with op_p50_ms"),
		d("share.transport", "ratio", "lower", "transport share of traced op self time"),
		d("share.core", "ratio", "lower", "core share of traced op self time"),
		d("share.sched", "ratio", "lower", "sched share of traced op self time"),
		d("share.present", "ratio", "lower", "present share of traced op self time"),
		d("share.filter", "ratio", "lower", "filter share of traced op self time"),
		d("share.player", "ratio", "lower", "player share of traced op self time"),
		d("share.render", "ratio", "lower", "render share of traced op self time"),
		d("share.client", "ratio", "lower", "harness share of traced op self time (checks, span bookkeeping)"),
	}
}
