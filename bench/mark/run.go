package mark

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/cmif"
)

// Config is one invocation of the benchmark.
type Config struct {
	Workload string
	Seed     uint64
	// Seconds is the nominal length of the measured phase. The phase runs
	// the workload's op budget for that long (Workload.NominalRate x
	// Seconds, in whole rounds) and is cut off at the first round boundary
	// after MaxOverrun x Seconds if the host is slower than that.
	Seconds float64
	// Trace selects the traced run (per-layer metrics) over the untraced
	// run (end-to-end metrics).
	Trace bool
	// WorkDir holds the data and cache directories; it is created, and
	// everything the run puts in it is removed again.
	WorkDir string
	// SpanFile, if set, receives the traced run's spans as JSON.
	SpanFile string
	// Log receives progress and the human-readable report.
	Log io.Writer
}

// Metric is one reported value.
type Metric struct {
	Name  string
	Unit  string
	Value float64
	// Samples is the number of observations behind a percentile, 0 when
	// the metric is not one.
	Samples int
}

// Result is what a run reports.
type Result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []Metric
	// Layers is the traced run's self-time-by-layer table.
	Layers []LayerRow
	// Errors lists the first failure of each phase and every failed
	// end-of-run check.
	Errors []string
}

// tally folds phases and end-of-run checks into the attempted / failed
// counts and the error list.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) phase(r *phaseResult) {
	t.attempted += r.attempted
	t.failed += r.failed
	if r.firstErr != nil {
		t.errs = append(t.errs, r.firstErr.Error())
	}
}

// check counts one end-of-run output check.
func (t *tally) check(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		t.errs = append(t.errs, err.Error())
	}
}

// Run executes one benchmark run. An error means the run could not be
// carried out; a run that finished with failed output checks returns a
// Result with Correct false.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	wl, err := WorkloadByName(cfg.Workload)
	if err != nil {
		return nil, err
	}
	if cfg.Seconds <= 0 {
		return nil, fmt.Errorf("seconds must be positive")
	}
	if n := runtime.NumCPU(); n < Procs {
		return nil, fmt.Errorf("host offers %d CPU; the load shape needs %d (GOMAXPROCS %d, %d client goroutines)", n, Procs, Procs, Clients)
	}
	runtime.GOMAXPROCS(Procs)
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(cfg.WorkDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	res := &Result{}
	host := readHostEnv(root)
	fmt.Fprintf(cfg.Log, "cmifmark %s seed=%d seconds=%g trace=%v\n", wl.Name, cfg.Seed, cfg.Seconds, cfg.Trace)
	fmt.Fprintf(cfg.Log, "env: nproc=%d gomaxprocs=%d %s loadavg=[%s] workdir=%s (%s)\n",
		host.NumCPU, host.GOMAXPROCS, host.GoVersion, host.LoadAvg, host.WorkDir, host.FSType)
	fmt.Fprintf(cfg.Log, "load: closed loop, %d client goroutines on %d persistent loopback TCP connections, SyncInterval\n", Clients, Clients)

	if cfg.Trace {
		err = runTraced(ctx, cfg, wl, root, res)
	} else {
		err = runUntraced(ctx, cfg, wl, root, res)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// setUpRepeated sets up n times, tearing all but the last down again,
// and returns the last with every set-up's duration.
func setUpRepeated(ctx context.Context, cfg Config, wl Workload, root string, n int) (*env, []float64, error) {
	var secs []float64
	for r := 0; ; r++ {
		start := time.Now()
		e, err := setUp(ctx, wl, cfg.Seed, filepath.Join(root, fmt.Sprintf("setup-%d", r)))
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
		if r == n-1 {
			return e, secs, nil
		}
		e.tearDown()
	}
}

// measure runs the workload's own phase: the author/follower pair, or
// the view schedule from index `from`.
func (e *env) measure(ctx context.Context, from int, rule stopRule, tr *traceSink) phaseResult {
	if e.wl.Author {
		return e.live.run(ctx, rule, tr)
	}
	return e.runViews(ctx, from, rule, tr)
}

// liveTail gives a view workload its author-side readings: after the
// view phase, the same author/follower pair author-live measures runs a
// short fixed number of rounds against the same tiers.
func (e *env) liveTail(ctx context.Context, tr *traceSink) (phaseResult, error) {
	var err error
	if e.live, err = openLiveSession(ctx, e); err != nil {
		return phaseResult{}, err
	}
	return e.live.run(ctx, stopRule{rounds: e.wl.TailRounds}, tr), nil
}

// edgeGauge reads the counters that must not move during a warm view
// phase.
type edgeGauge struct {
	roundTrips           int64
	hits, disk, upstream int64
}

func (e *env) readEdge() edgeGauge {
	if e.edge == nil {
		return edgeGauge{}
	}
	snap := e.edgeMetrics.Snapshot()
	return edgeGauge{
		roundTrips: e.edge.UpstreamRoundTrips(),
		hits:       snap.Counters["cmif_edge_block_hits_total"],
		disk:       snap.Counters["cmif_edge_block_disk_hits_total"],
		upstream:   snap.Counters["cmif_edge_block_misses_total"],
	}
}

// checkEdgeWarm is the view-edge output check: across the view phases
// the edge held a lease on every document and never went upstream.
func (e *env) checkEdgeWarm(before, after edgeGauge) error {
	if e.edge == nil {
		return nil
	}
	if n := after.roundTrips - before.roundTrips; n != 0 {
		return fmt.Errorf("edge made %d upstream round trips during a warm view phase, want 0", n)
	}
	if e.edge.Leases() != len(e.docs) {
		return fmt.Errorf("edge holds %d leases, want %d", e.edge.Leases(), len(e.docs))
	}
	return nil
}

// finished is what the end of a run measured.
type finished struct {
	diskBytes   int64 // data directory plus edge cache directory
	originBytes int64 // data directory alone
	recoverSecs []float64
}

// finish is the shared end of a run: verify the live session, capture
// the served state, stop the tiers gracefully, weigh the directories and
// recover the data directory `samples` times.
func (e *env) finish(ctx context.Context, t *tally, samples int) (finished, error) {
	var f finished
	t.check(e.live.verify(ctx))
	served, err := e.captureServed(ctx)
	if err != nil {
		return f, err
	}
	e.closeClients()
	if err := e.shutdownTiers(); err != nil {
		return f, err
	}
	if f.originBytes, err = dirBytes(e.originDir()); err != nil {
		return f, err
	}
	f.diskBytes = f.originBytes
	if e.wl.Edge {
		n, err := dirBytes(e.edgeDir())
		if err != nil {
			return f, err
		}
		f.diskBytes += n
	}
	f.recoverSecs, err = e.recoverDataDir(served, samples)
	if err != nil {
		// A recovery that does not reproduce the served state is a
		// failed output check, not a harness failure.
		t.check(err)
		f.recoverSecs = []float64{0}
		return f, nil
	}
	t.check(nil)
	return f, nil
}

func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / mb
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func runUntraced(ctx context.Context, cfg Config, wl Workload, root string, res *Result) error {
	var t tally
	e, setupSecs, err := setUpRepeated(ctx, cfg, wl, root, SetupRepeats)
	if err != nil {
		return err
	}
	defer e.tearDown()
	fmt.Fprintf(cfg.Log, "set-up x%d: %.3v s\n", SetupRepeats, setupSecs)

	edgeBefore := e.readEdge()
	phase := e.measure(ctx, e.nextOp, wl.budget(cfg.Seconds), nil)
	t.phase(&phase)
	heap := liveHeapMB()
	t.check(e.checkEdgeWarm(edgeBefore, e.readEdge()))
	if len(phase.ops) < Windows {
		return fmt.Errorf("measured phase completed %d ops (%v); nothing to report", len(phase.ops), phase.firstErr)
	}

	deltas := phase.deltas
	if !wl.Author {
		tail, err := e.liveTail(ctx, nil)
		if err != nil {
			return err
		}
		t.phase(&tail)
		deltas = tail.deltas
	}
	userBytes := e.userBytes
	fin, err := e.finish(ctx, &t, RecoverRepeats)
	if err != nil {
		return err
	}

	ops := float64(len(phase.ops))
	lat := phase.latencies()
	rates := WindowRates(phase.ends(), Windows)
	res.Attempted, res.Failed, res.Errors = t.attempted, t.failed, t.errs
	values := map[string]Metric{
		"setup_s":                  {Value: Median(setupSecs)},
		"ops_per_s":                {Value: Median(rates)},
		"op_p50_ms":                {Value: WindowPercentile(lat, Windows, 0.50), Samples: len(lat)},
		"op_p90_ms":                {Value: WindowPercentile(lat, Windows, 0.90), Samples: len(lat)},
		"cpu_ms_per_op":            {Value: float64(phase.cpu) / float64(time.Millisecond) / ops},
		"wire_bytes_per_op":        {Value: float64(phase.wire) / ops},
		"live_heap_mb":             {Value: heap},
		"correct_op_ratio":         {Value: 1 - float64(t.failed)/float64(t.attempted)},
		"delta_p50_ms":             {Value: WindowPercentile(deltas, Windows, 0.50), Samples: len(deltas)},
		"delta_p90_ms":             {Value: WindowPercentile(deltas, Windows, 0.90), Samples: len(deltas)},
		"recover_s":                {Value: Median(fin.recoverSecs)},
		"disk_bytes_per_user_byte": {Value: float64(fin.diskBytes) / float64(userBytes)},
	}
	for _, def := range EndToEnd() {
		m := values[def.Name]
		m.Name, m.Unit = def.Name, def.Unit
		res.Metrics = append(res.Metrics, m)
	}
	fmt.Fprintf(cfg.Log, "measured phase: %.2f s, %d ops, window spread %.3f; p99 %.3f ms (diagnostic)\n",
		phase.wall.Seconds(), len(phase.ops), WindowSpread(rates), Percentile(durationsMS(lat), 0.99))
	return nil
}

func runTraced(ctx context.Context, cfg Config, wl Workload, root string, res *Result) error {
	var t tally
	e, _, err := setUpRepeated(ctx, cfg, wl, root, 1)
	if err != nil {
		return err
	}
	defer e.tearDown()
	durable0, _ := e.origin.DurableStats()

	// Half the run untraced, half traced, on one set-up: the ratio of
	// the two throughputs is the tracing overhead.
	edgeBefore := e.readEdge()
	half := wl.budget(cfg.Seconds / 2)
	base := e.measure(ctx, e.nextOp, half, nil)
	t.phase(&base)
	sink := newTraceSink()
	traced := e.measure(ctx, e.nextOp+base.attempted, half, sink)
	t.phase(&traced)
	edgeAfter := e.readEdge()
	t.check(e.checkEdgeWarm(edgeBefore, edgeAfter))
	if len(base.ops) < Windows || len(traced.ops) < Windows {
		return fmt.Errorf("measured phases completed %d and %d ops (%v); nothing to report",
			len(base.ops), len(traced.ops), t.errs)
	}
	viewSpans := sink.Spans()

	live := []*phaseResult{&base, &traced}
	if !wl.Author {
		tail, err := e.liveTail(ctx, sink)
		if err != nil {
			return err
		}
		t.phase(&tail)
		live = []*phaseResult{&tail}
	}
	var liveOps int
	var submits, putBlocks []time.Duration
	for _, p := range live {
		liveOps += len(p.ops)
		submits = append(submits, p.submits...)
		putBlocks = append(putBlocks, p.putBlocks...)
	}

	origin := e.originMetrics.Snapshot()
	front := origin // the tier the clients dial
	edgeSnap := cmif.MetricsSnapshot{}
	if e.edge != nil {
		edgeSnap = e.edgeMetrics.Snapshot()
		front = edgeSnap
	}
	resyncs := float64(e.live.whole.Resyncs() + e.live.subtree.Resyncs())
	durable1, _ := e.origin.DurableStats()
	dedupe := e.origin.Store().DedupeStats()
	fin, err := e.finish(ctx, &t, 1)
	if err != nil {
		return err
	}
	probes, err := e.runProbes(root)
	if err != nil {
		return err
	}

	// Only the view op has child spans; the layer table is over it.
	var opSpans []Span
	if !wl.Author {
		opSpans = viewSpans
	}
	rows, opSums := LayerTable(opSpans)
	res.Layers = rows
	share := map[string]float64{}
	for _, r := range rows {
		share[r.Layer] = r.Share
	}
	spanP50 := func(name string) float64 { return Percentile(spanDurationsMS(viewSpans, name), 0.5) }
	spanSecs := func(name string) float64 {
		var ms float64
		for _, d := range spanDurationsMS(viewSpans, name) {
			ms += d
		}
		return ms / 1e3
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	hist := func(s cmif.MetricsSnapshot, key string) float64 { return s.Histograms[key].P50 * 1e3 }
	busy := func(s cmif.MetricsSnapshot) (n float64) {
		for _, reason := range []string{"conn_inflight", "queue_full", "queue_timeout", "sub_slow", "subs_full"} {
			n += float64(s.Counters[fmt.Sprintf("cmif_busy_rejections_total{reason=%q}", reason)])
		}
		return n
	}
	tracedOps := float64(sink.ops.Load())
	fetchedMB := float64(sink.fetchedBytes.Load()) / mb
	baseOps := float64(len(base.ops))
	baseLat := durationsMS(base.latencies())
	baseRates := WindowRates(base.ends(), Windows)
	tracedRates := WindowRates(traced.ends(), Windows)
	edgeHits := float64(edgeAfter.hits - edgeBefore.hits)
	edgeDisk := float64(edgeAfter.disk - edgeBefore.disk)
	edgeUp := float64(edgeAfter.upstream - edgeBefore.upstream)

	values := map[string]float64{
		"transport.opendoc_ms_p50":        spanP50("transport.opendoc"),
		"transport.blocks_ms_p50":         spanP50("transport.blocks"),
		"transport.blocks_mb_per_s":       ratio(fetchedMB, spanSecs("transport.blocks")),
		"transport.wire_overhead_ratio":   ratio(float64(traced.wire), float64(sink.fetchedBytes.Load())),
		"transport.server_getdoc_ms_p50":  hist(front, `cmif_request_seconds{op="getdoc"}`),
		"transport.server_getblks_ms_p50": hist(front, `cmif_request_seconds{op="getblks"}`),
		"transport.dial_ms":               Median(e.dialMS),
		"transport.busy_rejections":       busy(origin) + busy(edgeSnap),
		"transport.submit_ms_p50":         Percentile(durationsMS(submits), 0.5),
		"transport.putblk_ms_p50":         Percentile(durationsMS(putBlocks), 0.5),
		"transport.delta_fanout_ms_p50":   hist(origin, "cmif_delta_fanout_seconds"),
		"transport.deltas_pushed":         float64(origin.Counters["cmif_deltas_pushed_total"]),
		"transport.sub_resyncs":           resyncs,
		"media.getref_ns_p50":             probes.getRefNS,
		"media.put_mb_per_s":              probes.putMBs,
		"media.verify_mb_per_s":           probes.verifyMBs,
		"media.dedupe_ratio":              ratio(float64(dedupe.LogicalBytes), float64(dedupe.UniqueBytes)),
		"filter.evaluate_ms_p50":          spanP50("filter.evaluate"),
		"filter.apply_ms_p50":             spanP50("filter.apply"),
		"filter.apply_mb_per_s":           ratio(fetchedMB, spanSecs("filter.apply")),
		"codec.decode_ms_p50":             probes.decodeMS,
		"codec.encode_ms_p50":             probes.encodeMS,
		"codec.doc_bytes":                 probes.docBytes,
		"core.validate_ms_p50":            spanP50("core.validate"),
		"sched.build_ms_p50":              spanP50("sched.build"),
		"sched.solve_ms_p50":              spanP50("sched.solve"),
		"sched.solve_serial_ms_p50":       probes.solveSerialMS,
		"sched.events_per_op":             ratio(float64(sink.events.Load()), tracedOps),
		"sched.constraints_per_op":        ratio(float64(sink.constraints.Load()), tracedOps),
		"sched.dropped_arcs_per_op":       ratio(float64(sink.dropped.Load()), tracedOps),
		"sched.reschedule_ms_p50":         probes.rescheduleMS,
		"present.map_ms_p50":              spanP50("present.map"),
		"player.play_ms_p50":              spanP50("player.play"),
		"render.views_ms_p50":             spanP50("render.views"),
		"edge.mem_hit_ratio":              ratio(edgeHits-edgeDisk-edgeUp, edgeHits),
		"edge.disk_hit_ratio":             ratio(edgeDisk, edgeHits),
		"edge.upstream_round_trips":       float64(edgeAfter.roundTrips - edgeBefore.roundTrips),
		"edge.diskcache_get_ms_p50":       probes.diskGetMS,
		"edge.lease_resyncs":              float64(edgeSnap.Counters["cmif_edge_lease_resyncs_total"]),
		"durable.wal_appends_per_op":      ratio(float64(durable1.Records-durable0.Records), float64(liveOps)),
		"durable.wal_bytes_per_op":        ratio(float64(durable1.AppendedBytes-durable0.AppendedBytes), float64(liveOps)),
		"durable.append_ms_p50":           hist(origin, "cmif_wal_append_seconds"),
		"durable.snapshots":               float64(durable1.Snapshots),
		"durable.snapshot_bytes":          float64(durable1.LastSnapshotBytes),
		"durable.load_mb_per_s":           ratio(float64(fin.originBytes)/mb, fin.recoverSecs[0]),
		"chunker.split_mb_per_s":          probes.splitMBs,
		"edit.apply_us_p50":               probes.editApplyUS,
		"proc.allocs_per_op":              float64(base.mallocs) / baseOps,
		"proc.alloc_kb_per_op":            float64(base.allocBytes) / 1024 / baseOps,
		"proc.gc_pause_ms_total":          float64(base.gcPauseNS) / 1e6,
		"proc.op_p99_ms":                  Percentile(baseLat, 0.99),
		"proc.peak_rss_mb":                peakRSSMB(),
		"client.window_spread":            WindowSpread(baseRates),
		"trace.overhead_ratio":            ratio(Median(tracedRates), Median(baseRates)),
		"trace.op_selftime_ms_p50":        Percentile(opSums, 0.5),
	}
	for _, layer := range []string{"transport", "core", "sched", "present", "filter", "player", "render", "client"} {
		values["share."+layer] = share[layer]
	}
	for _, def := range PerLayer() {
		res.Metrics = append(res.Metrics, Metric{Name: def.Name, Unit: def.Unit, Value: values[def.Name]})
	}
	res.Attempted, res.Failed, res.Errors = t.attempted, t.failed, t.errs
	fmt.Fprintf(cfg.Log, "untraced half: %.2f s, %d ops, p50 %.3f ms; traced half: %.2f s, %d ops, %d spans\n",
		base.wall.Seconds(), len(base.ops), Percentile(baseLat, 0.5), traced.wall.Seconds(), len(traced.ops), len(sink.Spans()))
	if cfg.SpanFile != "" {
		if err := WriteSpans(cfg.SpanFile, wl.Name, cfg.Seed, sink.Spans()); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(cfg.Log, "spans written to %s\n", cfg.SpanFile)
	}
	return nil
}
