package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// The bench gate validates BENCH_*.json reports in CI: structural
// invariants that hold on any machine (wire-call arithmetic, schedule
// equality, allocation ratios), throughput relations with generous
// tolerances, and — for the committed reference files — the headline
// speedups the repository claims, checked against the environment the run
// actually recorded. scripts/check_bench.sh drives this through
// cmifbench's -check-store/-check-sched flags.

// LoadStoreReport reads a BENCH_store.json.
func LoadStoreReport(path string) (*StoreBenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r StoreBenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// LoadSchedReport reads a BENCH_sched.json.
func LoadSchedReport(path string) (*SchedBenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r SchedBenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// CheckStoreReport validates a store-bench report. committed tightens the
// thresholds to the levels the reference file is expected to document.
// It returns human-readable violations; empty means the report passes.
func CheckStoreReport(r *StoreBenchReport, committed bool) []string {
	var v []string
	fail := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }

	if len(r.Rows) == 0 {
		return []string{"store report has no rows"}
	}
	if r.Env.GoMaxProcs < 1 || r.Env.GoVersion == "" {
		fail("store report env not captured: %+v", r.Env)
	}

	type key struct {
		scenario string
		clients  int
	}
	rows := map[key]StoreBenchRow{}
	for _, row := range r.Rows {
		rows[key{row.Scenario, row.Clients}] = row
	}
	for _, clients := range r.Config.Clients {
		cold, okCold := rows[key{"per-block-cold", clients}]
		batched, okBatched := rows[key{"batched-cold", clients}]
		if !okCold || !okBatched {
			fail("missing per-block-cold/batched-cold rows at %d clients", clients)
			continue
		}
		// Wire-call arithmetic is machine-independent and exact.
		if cold.WireCalls != int64(cold.Fetches) {
			fail("per-block-cold at %d clients: wire_calls %d != fetches %d",
				clients, cold.WireCalls, cold.Fetches)
		}
		if batched.WireCalls*8 > int64(batched.Fetches) {
			fail("batched-cold at %d clients: wire_calls %d not ≤ fetches/8 (%d)",
				clients, batched.WireCalls, batched.Fetches/8)
		}
		for _, scenario := range []string{"per-block", "batched"} {
			warm, ok := rows[key{scenario + "-warm", clients}]
			if !ok {
				continue
			}
			coldRow := rows[key{scenario + "-cold", clients}]
			if warm.WireCalls > coldRow.WireCalls {
				fail("%s-warm at %d clients: wire_calls %d exceed cold %d",
					scenario, clients, warm.WireCalls, coldRow.WireCalls)
			}
		}
	}

	// Relative throughput: the locality headline must survive, with a
	// generous tolerance for slow or noisy runners.
	minSpeedup := 1.2
	if committed {
		minSpeedup = 4.0
	}
	if r.SpeedupWarmBatched < minSpeedup {
		fail("warm-batched speedup %.2fx below the %.1fx floor", r.SpeedupWarmBatched, minSpeedup)
	}
	return v
}

// LoadWireSatReport reads a BENCH_wire2.json.
func LoadWireSatReport(path string) (*WireSatReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r WireSatReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// CheckWireSatReport validates a wire-saturation report against the S9
// gate. The bytes-on-wire arithmetic is machine-independent and exact:
// every pass delivers exactly Fetches x BlockBytes logical bytes, a
// plain transfer's wire bytes can never undershoot the payload it
// carried, the dedupe path's wire bytes plus cache-served bytes must
// cover the payload, and a warm dedupe pass answers every fetch through
// the manifest path. committed enforces the repository's headline
// claims — warm dedupe throughput ≥ 2x and wire bytes ≥ 5x down against
// the plain transfer on the dup-heavy corpus, compression ≥ 2x down on
// the text corpus — and, like every reference with a concurrency
// headline, must have been recorded at GOMAXPROCS ≥ 4.
func CheckWireSatReport(r *WireSatReport, committed bool) []string {
	var v []string
	fail := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }

	if len(r.Rows) == 0 {
		return []string{"wire-saturation report has no rows"}
	}
	if r.Env.GoMaxProcs < 1 || r.Env.GoVersion == "" {
		fail("wire-saturation report env not captured: %+v", r.Env)
	}
	if committed && r.Env.GoMaxProcs < 4 {
		fail("committed wire-saturation report ran at GOMAXPROCS=%d; the warm-throughput headline cannot be gated on a single-core record — re-record with GOMAXPROCS ≥ 4",
			r.Env.GoMaxProcs)
	}
	if !r.Compressed {
		fail("the v4 clients never negotiated the frame codec; the compress/dedup scenarios measured nothing")
	}

	type key struct{ scenario, corpus, pass string }
	rows := map[key]WireSatRow{}
	for _, row := range r.Rows {
		rows[key{row.Scenario, row.Corpus, row.Pass}] = row

		if row.Fetches <= 0 {
			fail("%s/%s/%s: no fetches", row.Scenario, row.Corpus, row.Pass)
			continue
		}
		// Exact payload arithmetic: every fetch delivered the whole block.
		want := int64(row.Fetches) * int64(r.Config.BlockBytes)
		if row.PayloadBytes != want {
			fail("%s/%s/%s: payload_bytes %d != fetches x block_bytes = %d",
				row.Scenario, row.Corpus, row.Pass, row.PayloadBytes, want)
		}
		switch row.Scenario {
		case "plain-v3":
			// No codec, no dedupe: the wire carried at least the payload.
			if row.BytesReceived < row.PayloadBytes {
				fail("plain-v3/%s/%s: bytes_received %d below the %d payload bytes it must have carried",
					row.Corpus, row.Pass, row.BytesReceived, row.PayloadBytes)
			}
			if row.DedupeFetches != 0 || row.DedupeSaved != 0 {
				fail("plain-v3/%s/%s: dedupe counters moved (%d fetches, %d bytes) on a pre-dedupe protocol",
					row.Corpus, row.Pass, row.DedupeFetches, row.DedupeSaved)
			}
		case "dedup-v4":
			// Every logical byte came off the wire or out of the chunk
			// cache (chunks of the random corpus ship uncompressed, so
			// wire bytes cannot undershoot the missing-chunk bytes).
			if row.BytesReceived+row.DedupeSaved < row.PayloadBytes {
				fail("dedup-v4/%s/%s: bytes_received %d + dedupe_saved %d below the %d payload bytes delivered",
					row.Corpus, row.Pass, row.BytesReceived, row.DedupeSaved, row.PayloadBytes)
			}
			if row.Pass == "warm" && row.DedupeFetches != int64(row.Fetches) {
				fail("dedup-v4/%s/warm: %d of %d fetches rode the manifest path; a warm cache must answer them all",
					row.Corpus, row.DedupeFetches, row.Fetches)
			}
		case "compress-v4":
			// The text corpus deflates far below the framing overhead, so
			// compression winning is deterministic, not a timing claim.
			if row.BytesReceived >= row.PayloadBytes {
				fail("compress-v4/%s/%s: bytes_received %d not below the %d payload bytes; the codec never engaged",
					row.Corpus, row.Pass, row.BytesReceived, row.PayloadBytes)
			}
		}
	}
	for _, k := range []key{
		{"plain-v3", "dup", "cold"}, {"plain-v3", "dup", "warm"},
		{"dedup-v4", "dup", "cold"}, {"dedup-v4", "dup", "warm"},
		{"plain-v3", "text", "cold"}, {"plain-v3", "text", "warm"},
		{"compress-v4", "text", "cold"}, {"compress-v4", "text", "warm"},
	} {
		if _, ok := rows[k]; !ok {
			fail("missing %s/%s/%s row", k.scenario, k.corpus, k.pass)
		}
	}
	// A warm dedupe pass never ships more per fetch than its cold pass.
	if cold, ok := rows[key{"dedup-v4", "dup", "cold"}]; ok && cold.Fetches > 0 {
		if warmRow, ok := rows[key{"dedup-v4", "dup", "warm"}]; ok && warmRow.Fetches > 0 {
			coldPer := cold.BytesReceived / int64(cold.Fetches)
			warmPer := warmRow.BytesReceived / int64(warmRow.Fetches)
			if warmPer > coldPer {
				fail("dedup-v4/dup: warm pass shipped %d bytes/fetch, above the cold pass's %d", warmPer, coldPer)
			}
		}
	}

	// The headlines. The wire reductions are byte arithmetic — near
	// deterministic, so even fresh smoke runs owe a real margin; the
	// throughput speedup is timing, so fresh runs only have to show the
	// dedupe path is not slower.
	minSpeedup, minDup, minText := 1.1, 3.0, 1.2
	if committed {
		minSpeedup, minDup, minText = 2.0, 5.0, 2.0
	}
	if r.SpeedupWarmDedup < minSpeedup {
		fail("warm dedupe speedup %.2fx below the %.1fx floor", r.SpeedupWarmDedup, minSpeedup)
	}
	if r.WireReductionDup < minDup {
		fail("dup-corpus wire reduction %.2fx below the %.1fx floor", r.WireReductionDup, minDup)
	}
	if r.WireReductionText < minText {
		fail("text-corpus wire reduction %.2fx below the %.1fx floor", r.WireReductionText, minText)
	}
	return v
}

// CheckSchedReport validates a sched-bench report. committed enforces the
// repository's headline claims (incremental ≥10x; parallel ≥2x whenever
// the recorded environment had GOMAXPROCS ≥ 4).
func CheckSchedReport(r *SchedBenchReport, committed bool) []string {
	var v []string
	fail := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }

	if len(r.Rows) == 0 {
		return []string{"sched report has no rows"}
	}
	if r.Env.GoMaxProcs < 1 || r.Env.GoVersion == "" {
		fail("sched report env not captured: %+v", r.Env)
	}
	if !r.SchedulesIdentical {
		fail("schedules_identical is false: the parallel/incremental paths diverged from the full solve")
	}

	type key struct {
		leaves, arcs int
	}
	makespans := map[key]map[string]int64{}
	for _, row := range r.Rows {
		k := key{row.Leaves, row.Arcs}
		if makespans[k] == nil {
			makespans[k] = map[string]int64{}
		}
		makespans[k][row.Scenario] = row.MakespanMS

		switch row.Scenario {
		case "full-parallel":
			if row.Components != row.Arms {
				fail("full-parallel at %d leaves: %d components, want one per arm (%d)",
					row.Leaves, row.Components, row.Arms)
			}
		case "edit-incremental":
			if row.ComponentsResolvedPerOp > 1.01 {
				fail("edit-incremental at %d leaves: %.2f components re-solved per single-leaf edit, want 1",
					row.Leaves, row.ComponentsResolvedPerOp)
			}
		}
	}
	// The full solve and the parallel solve of one document must agree on
	// the makespan exactly; the two edit loops run different edits, so
	// only the solve pair is comparable.
	for k, m := range makespans {
		if s, ok := m["full-single"]; ok {
			if p, ok := m["full-parallel"]; ok && s != p {
				fail("makespan mismatch at %d leaves/%d arcs: single %dms vs parallel %dms",
					k.leaves, k.arcs, s, p)
			}
		}
	}

	// Allocation: the incremental path must allocate far less than the
	// rebuild-everything path.
	alloc := map[string]float64{}
	for _, row := range r.Rows {
		if row.Leaves == maxLeaves(r) {
			alloc[row.Scenario] = row.AllocKBPerOp
		}
	}
	if full, ok := alloc["edit-full"]; ok {
		if inc, ok := alloc["edit-incremental"]; ok && inc*4 > full {
			fail("edit-incremental allocates %.0fKB/op, not ≤ 1/4 of edit-full's %.0fKB/op", inc, full)
		}
	}

	minIncremental := 2.0
	if committed {
		minIncremental = 10.0
	}
	if r.IncrementalSpeedup < minIncremental {
		fail("incremental speedup %.1fx below the %.1fx floor", r.IncrementalSpeedup, minIncremental)
	}
	if r.Env.GoMaxProcs >= 4 {
		// Fresh smoke runs measure small documents on shared runners:
		// require only "not catastrophically slower" there, and the full
		// headline on the committed reference file.
		minParallel := 0.7
		if committed {
			minParallel = 2.0
		}
		if r.ParallelSpeedup < minParallel {
			fail("parallel speedup %.2fx below the %.1fx floor at GOMAXPROCS=%d",
				r.ParallelSpeedup, minParallel, r.Env.GoMaxProcs)
		}
	} else if committed {
		// A reference file recorded on a single-core environment proves
		// nothing about the parallel headline — and silently skipping the
		// floor would let such a file pass as if it did. Refuse it:
		// re-record with GOMAXPROCS ≥ 4.
		fail("committed sched report ran at GOMAXPROCS=%d; the parallel-speedup floor cannot be gated on a single-core record — re-record with GOMAXPROCS ≥ 4",
			r.Env.GoMaxProcs)
	}
	return v
}

// LoadSoakReport reads a BENCH_soak.json.
func LoadSoakReport(path string) (*SoakBenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r SoakBenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// CheckSoakReport validates a soak report against the S5 gate: every
// steady class ran error-free within the configured latency SLO, the
// overload phase both shed (via busy errors) and served (admitted p99
// within the SLO's tail budget), and the metrics endpoint answered both
// scrapes. The
// committed reference file must additionally record a sustained run
// (≥ 30 s steady phase) on an environment with GOMAXPROCS ≥ 4, so the
// quantiles reflect real concurrency.
func CheckSoakReport(r *SoakBenchReport, committed bool) []string {
	var v []string
	fail := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }

	if len(r.Rows) == 0 {
		return []string{"soak report has no rows"}
	}
	if r.Env.GoMaxProcs < 1 || r.Env.GoVersion == "" {
		fail("soak report env not captured: %+v", r.Env)
	}
	if committed && r.Env.GoMaxProcs < 4 {
		fail("committed soak report ran at GOMAXPROCS=%d; the reference requires ≥ 4", r.Env.GoMaxProcs)
	}
	if committed && r.Config.Seconds < 30 {
		fail("committed soak report covers %.0fs of steady traffic; the reference requires ≥ 30s", r.Config.Seconds)
	}

	slo := r.Config.SLO
	rows := map[string]SoakRow{}
	for _, row := range r.Rows {
		rows[row.Class] = row
	}
	for _, class := range []string{"read", "fetch", "query", "edit", "subscribe", "edge"} {
		row, ok := rows[class]
		if !ok {
			fail("missing %s row", class)
			continue
		}
		if row.Ops == 0 {
			fail("%s class completed no operations", class)
		}
		if row.Errors > 0 {
			fail("%s class saw %d non-busy errors", class, row.Errors)
		}
		if row.Busy > 0 {
			fail("%s class was shed %d times during the steady phase; steady load must fit the admission bound", class, row.Busy)
		}
		if row.P50MS > slo.P50MS {
			fail("%s p50 %.1fms exceeds the %.0fms SLO", class, row.P50MS, slo.P50MS)
		}
		if row.P99MS > slo.P99MS {
			fail("%s p99 %.1fms exceeds the %.0fms SLO", class, row.P99MS, slo.P99MS)
		}
		if row.P999MS > slo.P999MS {
			fail("%s p999 %.1fms exceeds the %.0fms SLO", class, row.P999MS, slo.P999MS)
		}
	}

	over, ok := rows["overload"]
	switch {
	case !ok:
		fail("missing overload row")
	default:
		if over.Errors > 0 {
			fail("overload phase saw %d non-busy errors", over.Errors)
		}
		if over.Busy == 0 {
			fail("overload phase shed nothing: admission control never rejected under a deliberate flood")
		}
		if over.Ops == 0 {
			fail("overload phase admitted nothing: shedding must degrade service, not deny it")
		}
		// Requests admitted during the flood ride a deliberately
		// saturated write path, so they get the SLO's tail budget, not
		// the steady p99: bounded degradation, never collapse.
		if over.Ops > 0 && over.P99MS > slo.P999MS {
			fail("admitted overload p99 %.1fms exceeds the %.0fms tail budget; shedding failed to protect latency", over.P99MS, slo.P999MS)
		}
		if r.OverloadBusy != over.Busy {
			fail("overload_busy %d disagrees with the overload row's busy count %d", r.OverloadBusy, over.Busy)
		}
	}

	if r.ScrapeStatus < 200 || r.ScrapeStatus >= 300 {
		fail("prometheus scrape returned HTTP %d", r.ScrapeStatus)
	}
	if r.ScrapeJSONStatus < 200 || r.ScrapeJSONStatus >= 300 {
		fail("json scrape returned HTTP %d", r.ScrapeJSONStatus)
	}
	if r.PromBytes == 0 {
		fail("prometheus scrape returned an empty body")
	}

	// The daemon's own accounting must corroborate the client story.
	var served, shed int64
	for name, val := range r.ServerCounters {
		if strings.HasPrefix(name, "cmif_requests_total") {
			served += val
		}
		if strings.HasPrefix(name, "cmif_busy_rejections_total") {
			shed += val
		}
	}
	var clientOps int64
	for _, row := range r.Rows {
		// The edge class is served by the caching tier — once warm, most
		// of its reads never reach the daemon, so its ops cannot be
		// corroborated against the origin's request counters.
		if row.Class == "edge" {
			continue
		}
		clientOps += row.Ops
	}
	if served < clientOps {
		fail("server counted %d requests but clients completed %d; the metrics endpoint is undercounting", served, clientOps)
	}
	if over.Busy > 0 && shed == 0 {
		fail("clients saw %d busy rejections but cmif_busy_rejections_total is zero", over.Busy)
	}
	return v
}

// LoadSubsReport reads a BENCH_subs.json.
func LoadSubsReport(path string) (*SubsBenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r SubsBenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// CheckSubsReport validates a subscription-bench report against the S6
// gate. The structural invariants are machine-independent and exact:
// every scenario must deliver every update (Subscribers × Edits), no
// watcher may have resynchronized, and sampled replicas must have
// converged byte-for-byte on the authoritative document. The committed
// reference must additionally document the live-document headline —
// delta-push at least 5x poll-refetch at a scale of ≥ 1000 watchers —
// and, like every reference with a concurrency headline, must have been
// recorded at GOMAXPROCS ≥ 4.
func CheckSubsReport(r *SubsBenchReport, committed bool) []string {
	var v []string
	fail := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }

	if len(r.Rows) == 0 {
		return []string{"subs report has no rows"}
	}
	if r.Env.GoMaxProcs < 1 || r.Env.GoVersion == "" {
		fail("subs report env not captured: %+v", r.Env)
	}
	if committed && r.Env.GoMaxProcs < 4 {
		fail("committed subs report ran at GOMAXPROCS=%d; the fan-out headline cannot be gated on a single-core record — re-record with GOMAXPROCS ≥ 4",
			r.Env.GoMaxProcs)
	}

	scales := map[int]map[string]bool{}
	for _, row := range r.Rows {
		if scales[row.Subscribers] == nil {
			scales[row.Subscribers] = map[string]bool{}
		}
		scales[row.Subscribers][row.Scenario] = true

		want := int64(row.Subscribers) * int64(row.Edits)
		if row.Updates != want {
			fail("%s at %d subscribers: %d updates, want exactly %d×%d = %d",
				row.Scenario, row.Subscribers, row.Updates, row.Subscribers, row.Edits, want)
		}
		if row.Resyncs != 0 {
			fail("%s at %d subscribers: %d resyncs; a correctly sized run sheds nothing",
				row.Scenario, row.Subscribers, row.Resyncs)
		}
		if !row.Converged {
			fail("%s at %d subscribers: replicas did not converge on the authoritative document",
				row.Scenario, row.Subscribers)
		}
		if row.Seconds <= 0 || row.UpdatesPerSec <= 0 {
			fail("%s at %d subscribers: no measured throughput", row.Scenario, row.Subscribers)
		}
	}
	for _, scale := range r.Config.Subscribers {
		if !scales[scale]["delta-push"] || !scales[scale]["poll-refetch"] {
			fail("missing delta-push/poll-refetch rows at %d subscribers", scale)
		}
	}

	// The headline: watchers following pushed deltas absorb updates far
	// faster than watchers refetching whole documents. Fresh smoke runs on
	// noisy runners only have to show the push path is not slower.
	minSpeedup := 1.2
	if committed {
		minSpeedup = 5.0
	}
	if r.SpeedupDeltaVsPoll < minSpeedup {
		fail("delta-push speedup %.2fx below the %.1fx floor at %d subscribers",
			r.SpeedupDeltaVsPoll, minSpeedup, r.SpeedupAtSubscribers)
	}
	if committed && r.SpeedupAtSubscribers < 1000 {
		fail("committed subs report measures its headline at %d subscribers; the reference requires ≥ 1000",
			r.SpeedupAtSubscribers)
	}
	return v
}

func maxLeaves(r *SchedBenchReport) int {
	m := 0
	for _, row := range r.Rows {
		if row.Leaves > m {
			m = row.Leaves
		}
	}
	return m
}
