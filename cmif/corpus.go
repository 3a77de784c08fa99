package cmif

import (
	"context"

	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/newsdoc"
)

// NewsConfig sizes the built-in evening-news corpus (the paper's running
// example, sections 4 and 5.3.4).
type NewsConfig = newsdoc.Config

// BuildNews generates the five-channel evening-news broadcast with its
// synthetic media store. A zero config gets three stories.
func BuildNews(cfg NewsConfig) (*Document, *Store, error) {
	d, store, err := newsdoc.Build(cfg)
	if err != nil {
		return nil, nil, err
	}
	return wrapDocument(d), store, nil
}

// CorpusShape selects a load-test corpus generator: CorpusNewsWeb (wide
// multilingual news webs), CorpusArchive (long text-heavy journal runs)
// or CorpusDeepNest (deep par/seq nesting with dense May arcs — schedule
// it with WithRelaxation).
type CorpusShape = corpus.Shape

// The generator shapes.
const (
	CorpusNewsWeb  = corpus.NewsWeb
	CorpusArchive  = corpus.Archive
	CorpusDeepNest = corpus.DeepNest
)

// CorpusSpec sizes one generated document; generation is deterministic
// in the spec, so two processes with the same spec agree on the corpus.
type CorpusSpec = corpus.Spec

// GenerateCorpus builds one synthetic document of the given shape plus
// the store holding its external media blocks. The document validates
// before it is returned.
func GenerateCorpus(spec CorpusSpec) (*Document, *Store, error) {
	d, store, err := corpus.Generate(spec)
	if err != nil {
		return nil, nil, err
	}
	return wrapDocument(d), store, nil
}

// CorpusDocument is one entry of a generated corpus set.
type CorpusDocument struct {
	Name  string
	Doc   *Document
	Store *Store
}

// GenerateCorpusSet builds a mixed corpus — one document per shape per
// round — for loading into a server under test.
func GenerateCorpusSet(seed uint64, rounds int) ([]CorpusDocument, error) {
	set, err := corpus.GenerateSet(seed, rounds)
	if err != nil {
		return nil, err
	}
	out := make([]CorpusDocument, len(set))
	for i, n := range set {
		out[i] = CorpusDocument{Name: n.Name, Doc: wrapDocument(n.Doc), Store: n.Store}
	}
	return out, nil
}

// Experiment pairs an experiment id (T1, F1..F10, A1, A2) with its
// generator, regenerating one artifact of the paper's evaluation.
type Experiment = experiments.Experiment

// ExperimentTable is one experiment's tabular result.
type ExperimentTable = experiments.Table

// Experiments lists every reproduction experiment in paper order.
func Experiments() []Experiment { return experiments.All() }

// StoreBenchConfig sizes the storage/fetch concurrent-load scenarios. The
// zero value is usable (64 blocks of 16 KiB, 1 and 16 clients, 256 fetches
// per client).
type StoreBenchConfig = experiments.StoreBenchConfig

// StoreBenchReport is the machine-readable result set of RunStoreBench;
// cmifbench writes it to BENCH_store.json.
type StoreBenchReport = experiments.StoreBenchReport

// RunStoreBench measures the storage/fetch path under concurrent load
// against an in-process server: per-block vs batched round trips, cold vs
// warmed shared cache, at each configured client count.
func RunStoreBench(ctx context.Context, cfg StoreBenchConfig) (*StoreBenchReport, error) {
	return experiments.StoreBench(ctx, cfg)
}

// SchedBenchConfig sizes the S2 scheduler scenarios: par-of-seq documents
// at the configured leaf counts and arc densities, plus edit-churn loops.
// The zero value is usable (1k/10k/100k leaves, 16 arms, 24 edits).
type SchedBenchConfig = experiments.SchedBenchConfig

// SchedBenchReport is the machine-readable result set of RunSchedBench;
// cmifbench writes it to BENCH_sched.json.
type SchedBenchReport = experiments.SchedBenchReport

// RunSchedBench measures the synchronization solver: classic full solve vs
// component-parallel solve, and edit churn through full re-solves vs
// incremental rescheduling, with a per-event equality audit.
func RunSchedBench(cfg SchedBenchConfig) (*SchedBenchReport, error) {
	return experiments.SchedBench(cfg)
}

// WireSatBenchConfig sizes the S9 wire-saturation scenarios: the
// dup-heavy and compressible corpora fetched cold and warm over the
// plain v3 discipline and the v4 dedupe/compression paths. The zero
// value is usable (48 blocks of 256 KiB per corpus, 8 workers, 3 warm
// rounds).
type WireSatBenchConfig = experiments.WireSatBenchConfig

// WireSatBenchReport is the machine-readable result set of
// RunWireSatBench; cmifbench writes it to BENCH_wire2.json.
type WireSatBenchReport = experiments.WireSatReport

// RunWireSatBench measures what the v4 wire ships against an in-process
// server: warm chunk-deduped fetches and negotiated compression versus
// plain whole-payload transfers of the same logical bytes.
func RunWireSatBench(ctx context.Context, cfg WireSatBenchConfig) (*WireSatBenchReport, error) {
	return experiments.WireSatBench(ctx, cfg)
}

// LoadWireSatBenchReport reads a BENCH_wire2.json report from disk.
func LoadWireSatBenchReport(path string) (*WireSatBenchReport, error) {
	return experiments.LoadWireSatReport(path)
}

// CheckWireSatBenchReport validates a wire-saturation report: exact
// payload and bytes-on-wire arithmetic, and the committed headline
// floors (warm dedupe throughput ≥ 2x and wire bytes ≥ 5x down on the
// dup-heavy corpus, compression ≥ 2x down on the text corpus, recorded
// at GOMAXPROCS ≥ 4).
func CheckWireSatBenchReport(r *WireSatBenchReport, committed bool) []string {
	return experiments.CheckWireSatReport(r, committed)
}

// DurableBenchConfig sizes the S4 durability scenarios: write throughput
// by fsync policy, recovery time (WAL replay vs snapshot vs wire
// re-ingest) and write amplification. The zero value is usable (2048
// blocks of 4 KiB, recovery at 1k and 10k blocks).
type DurableBenchConfig = experiments.DurableBenchConfig

// DurableBenchReport is the machine-readable result set of
// RunDurableBench; cmifbench writes it to BENCH_durable.json.
type DurableBenchReport = experiments.DurableBenchReport

// RunDurableBench measures the durability layer: journaled write
// throughput under each sync policy, and corpus recovery — replaying the
// WAL or a snapshot against re-ingesting over the wire — with exact
// corpus-equality verification.
func RunDurableBench(ctx context.Context, cfg DurableBenchConfig) (*DurableBenchReport, error) {
	return experiments.DurableBench(ctx, cfg)
}

// SoakBenchConfig sizes the S5 soak scenario: a steady mixed workload
// (read/fetch/query/edit) against a LIVE daemon, then a deliberate
// overload flood, then a scrape of the daemon's metrics endpoint. Addr
// and MetricsURL are required; everything else has usable defaults (60 s
// steady phase, 4 workers, 8 flooding connections, 50/250/1000 ms SLO).
type SoakBenchConfig = experiments.SoakBenchConfig

// SoakSLO is the soak latency budget in milliseconds.
type SoakSLO = experiments.SoakSLO

// SoakBenchReport is the machine-readable result set of RunSoakBench;
// cmifsoak writes it to BENCH_soak.json.
type SoakBenchReport = experiments.SoakBenchReport

// RunSoakBench loads a generated corpus into the daemon at cfg.Addr,
// drives the steady and overload phases, scrapes cfg.MetricsURL and
// returns the report. The context bounds the whole run.
func RunSoakBench(ctx context.Context, cfg SoakBenchConfig) (*SoakBenchReport, error) {
	return experiments.SoakBench(ctx, cfg)
}

// LoadSoakBenchReport reads a BENCH_soak.json report from disk.
func LoadSoakBenchReport(path string) (*SoakBenchReport, error) {
	return experiments.LoadSoakReport(path)
}

// CheckSoakBenchReport validates a soak report: every steady class ran
// error-free within its latency SLO, the overload phase both shed (via
// busy errors) and served (admitted p99 within the tail budget), and the metrics
// endpoint corroborated the client-side story. The committed reference
// file must record ≥ 30 s of steady traffic at GOMAXPROCS ≥ 4.
func CheckSoakBenchReport(r *SoakBenchReport, committed bool) []string {
	return experiments.CheckSoakReport(r, committed)
}

// SubsBenchConfig sizes the S6 live-document scenario: N watchers follow
// a generated document while W writers submit edits, once through v3
// delta fan-out and once through the pre-v3 poll-refetch discipline. The
// zero value is usable (100/1k/10k subscribers, 16 edits, 2 writers).
type SubsBenchConfig = experiments.SubsBenchConfig

// SubsBenchReport is the machine-readable result set of RunSubsBench;
// cmifbench writes it to BENCH_subs.json.
type SubsBenchReport = experiments.SubsBenchReport

// RunSubsBench measures live-document fan-out against an in-process
// server: every watcher must absorb every edit, replicas must converge
// byte-for-byte on the authoritative document, and the report records
// how much faster pushed deltas are than per-update refetching.
func RunSubsBench(ctx context.Context, cfg SubsBenchConfig) (*SubsBenchReport, error) {
	return experiments.SubsBench(ctx, cfg)
}

// LoadSubsBenchReport reads a BENCH_subs.json report from disk.
func LoadSubsBenchReport(path string) (*SubsBenchReport, error) {
	return experiments.LoadSubsReport(path)
}

// CheckSubsBenchReport validates a subscription-bench report: exact
// update arithmetic (Subscribers × Edits, no resyncs, converged
// replicas) and the delta-push speedup floor (5x at ≥ 1000 subscribers
// for the committed reference file, which must also record
// GOMAXPROCS ≥ 4).
func CheckSubsBenchReport(r *SubsBenchReport, committed bool) []string {
	return experiments.CheckSubsReport(r, committed)
}

// EdgeBenchConfig sizes the S7 edge-tier scenario: a client population
// fetching a shared corpus direct-to-origin and through ladders of
// warmed edge caches. The zero value is usable (1000 clients, 1 then 4
// edges, 64 blocks, 32 fetches per client, 16 connections per server).
type EdgeBenchConfig = experiments.EdgeBenchConfig

// EdgeBenchReport is the machine-readable result set of RunEdgeBench;
// cmifbench writes it to BENCH_edge.json.
type EdgeBenchReport = experiments.EdgeBenchReport

// RunEdgeBench measures the edge tier against an in-process origin:
// origin offload (from the edges' own upstream round-trip counters) and
// client-observed p50/p99 latency, direct versus behind each configured
// edge count.
func RunEdgeBench(ctx context.Context, cfg EdgeBenchConfig) (*EdgeBenchReport, error) {
	return experiments.EdgeBench(ctx, cfg)
}

// LoadEdgeBenchReport reads a BENCH_edge.json report from disk.
func LoadEdgeBenchReport(path string) (*EdgeBenchReport, error) {
	return experiments.LoadEdgeReport(path)
}

// CheckEdgeBenchReport validates an edge-bench report: exact fetch
// arithmetic, warm offload ≥ 0.9, and — for the committed reference —
// ≥ 1000 clients behind ≥ 4 edges whose p99 does not exceed the direct
// p99, recorded at GOMAXPROCS ≥ 4.
func CheckEdgeBenchReport(r *EdgeBenchReport, committed bool) []string {
	return experiments.CheckEdgeReport(r, committed)
}

// BenchEnv records the environment a benchmark ran under (GOMAXPROCS, CPU
// count, go version); it travels inside every BENCH report.
type BenchEnv = experiments.BenchEnv

// CaptureBenchEnv snapshots the current process environment for a report.
func CaptureBenchEnv() BenchEnv { return experiments.CaptureBenchEnv() }

// LoadStoreBenchReport reads a BENCH_store.json report from disk.
func LoadStoreBenchReport(path string) (*StoreBenchReport, error) {
	return experiments.LoadStoreReport(path)
}

// LoadSchedBenchReport reads a BENCH_sched.json report from disk.
func LoadSchedBenchReport(path string) (*SchedBenchReport, error) {
	return experiments.LoadSchedReport(path)
}

// LoadDurableBenchReport reads a BENCH_durable.json report from disk.
func LoadDurableBenchReport(path string) (*DurableBenchReport, error) {
	return experiments.LoadDurableReport(path)
}

// CheckDurableBenchReport validates a durability-bench report: recovery
// restores 100% of the corpus byte-for-byte, write amplification stays
// within the record format's ceiling, and WAL replay beats wire re-ingest
// (≥ 10x for the committed reference file).
func CheckDurableBenchReport(r *DurableBenchReport, committed bool) []string {
	return experiments.CheckDurableReport(r, committed)
}

// CheckStoreBenchReport validates a store-bench report against the
// bench-regression invariants (wire-call arithmetic, cache monotonicity,
// throughput floors). committed applies the tighter thresholds expected of
// the repository's reference file. Violations come back human-readable;
// empty means the report passes.
func CheckStoreBenchReport(r *StoreBenchReport, committed bool) []string {
	return experiments.CheckStoreReport(r, committed)
}

// CheckSchedBenchReport validates a sched-bench report: schedule-equality
// and component invariants, allocation ratios, and the incremental/parallel
// speedup floors (the parallel floor applies when the recorded environment
// had GOMAXPROCS ≥ 4).
func CheckSchedBenchReport(r *SchedBenchReport, committed bool) []string {
	return experiments.CheckSchedReport(r, committed)
}
