package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/transport"
)

// The wire-saturation bench measures the S9 scenarios: what the v4 wire
// actually ships when the payload is redundant. Two corpora — dup (large
// near-duplicate blocks of incompressible random data, the
// content-defined-dedupe target) and text (distinct highly compressible
// blocks, the flate-codec target) — are each fetched cold and then warm
// by workers sharing one connection, once over the plain v3 discipline
// (whole payloads, no codec) and once over the v4 path that applies.
// The headline figures are the warm-pass comparisons: dedupe throughput
// and bytes-on-wire against the plain transfer of the same logical
// bytes, and the compression ratio on the text corpus.

// wireSatSpliceBytes is how much each dup-corpus block diverges from the
// shared base — small against the block, so near-duplicates share most
// of their content-defined chunks.
const wireSatSpliceBytes = 256

// WireSatBenchConfig sizes the S9 scenarios. The zero value is usable:
// 48 blocks of 256 KiB per corpus, 8 workers on one connection, and a
// warm pass that re-fetches the corpus 3 times.
type WireSatBenchConfig struct {
	// Blocks is each corpus's size; BlockBytes each payload's size.
	Blocks     int `json:"blocks"`
	BlockBytes int `json:"block_bytes"`
	// Workers is the concurrent fetcher count; all workers share ONE
	// connection, so the scenarios compare wire disciplines.
	Workers int `json:"workers"`
	// WarmRounds is how many times the warm pass walks the corpus.
	WarmRounds int `json:"warm_rounds"`
}

func (c *WireSatBenchConfig) fillDefaults() {
	if c.Blocks <= 0 {
		c.Blocks = 48
	}
	if c.BlockBytes <= 0 {
		c.BlockBytes = 256 << 10
	}
	if c.BlockBytes < wireSatSpliceBytes*2 {
		c.BlockBytes = wireSatSpliceBytes * 2
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.WarmRounds <= 0 {
		c.WarmRounds = 3
	}
}

// WireSatRow is one (scenario, corpus, pass) measurement.
type WireSatRow struct {
	// Scenario is plain-v3, compress-v4 or dedup-v4.
	Scenario string `json:"scenario"`
	// Corpus is dup or text.
	Corpus string `json:"corpus"`
	// Pass is cold (first walk) or warm (the repeated walks).
	Pass string `json:"pass"`
	// Fetches is how many blocks were delivered to callers.
	Fetches int `json:"fetches"`
	// PayloadBytes sums the logical payload bytes delivered — exactly
	// Fetches x BlockBytes when every fetch returned the full block.
	PayloadBytes int64 `json:"payload_bytes"`
	// WireCalls counts requests that crossed the wire during the pass.
	WireCalls int64 `json:"wire_calls"`
	// BytesReceived counts response wire bytes during the pass, as the
	// connection's byte counter saw them (post-compression).
	BytesReceived int64 `json:"bytes_received"`
	// DedupeFetches counts fetches answered through the manifest/chunk
	// path; DedupeSaved the payload bytes the chunk cache served instead
	// of the wire.
	DedupeFetches int64 `json:"dedupe_fetches"`
	DedupeSaved   int64 `json:"dedupe_saved"`
	// Seconds is the pass's wall-clock time; MBPerSec is logical payload
	// throughput, PayloadBytes / Seconds.
	Seconds  float64 `json:"seconds"`
	MBPerSec float64 `json:"mb_per_sec"`
}

// WireSatReport is the machine-readable result set cmifbench writes to
// BENCH_wire2.json.
type WireSatReport struct {
	Config WireSatBenchConfig `json:"config"`
	Env    BenchEnv           `json:"env"`
	Rows   []WireSatRow       `json:"rows"`
	// Compressed reports the v4 clients actually negotiated the codec.
	Compressed bool `json:"compressed"`
	// SpeedupWarmDedup is warm dup-corpus throughput, dedup-v4 over
	// plain-v3 — the zero-copy + dedupe headline.
	SpeedupWarmDedup float64 `json:"speedup_warm_dedup"`
	// WireReductionDup is warm dup-corpus bytes on the wire, plain-v3
	// over dedup-v4 — the bytes-saved headline.
	WireReductionDup float64 `json:"wire_reduction_dup"`
	// WireReductionText is warm text-corpus bytes on the wire, plain-v3
	// over compress-v4 — the codec's ratio on compressible payloads.
	WireReductionText float64 `json:"wire_reduction_text"`
}

// JSON renders the report for BENCH_wire2.json.
func (r *WireSatReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Table renders the report in the experiment-table format.
func (r *WireSatReport) Table() *Table {
	t := &Table{
		ID:    "S9",
		Title: "wire saturation: dedupe and compression vs plain transfer",
		Header: []string{"scenario", "corpus", "pass", "fetches", "MiB payload",
			"MiB wire", "wire calls", "dedup hits", "seconds", "MB/s"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Scenario,
			row.Corpus,
			row.Pass,
			fmt.Sprintf("%d", row.Fetches),
			fmt.Sprintf("%.2f", float64(row.PayloadBytes)/(1<<20)),
			fmt.Sprintf("%.2f", float64(row.BytesReceived)/(1<<20)),
			fmt.Sprintf("%d", row.WireCalls),
			fmt.Sprintf("%d", row.DedupeFetches),
			fmt.Sprintf("%.3f", row.Seconds),
			fmt.Sprintf("%.0f", row.MBPerSec),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("warm dup corpus: dedup-v4 %.1fx the plain-v3 throughput, %.1fx fewer bytes on the wire",
			r.SpeedupWarmDedup, r.WireReductionDup),
		fmt.Sprintf("warm text corpus: compression ships %.1fx fewer bytes than the plain transfer", r.WireReductionText),
		"expect: a warm chunk cache turns repeat large-block fetches into manifest round trips")
	return t
}

// WireSatBench runs the S9 scenarios against an in-process server and
// returns the measurements. The context bounds every wire operation.
func WireSatBench(ctx context.Context, cfg WireSatBenchConfig) (*WireSatReport, error) {
	cfg.fillDefaults()

	store := media.NewStore()
	dupNames := wireSatDupCorpus(store, cfg.Blocks, cfg.BlockBytes)
	textNames := wireSatTextCorpus(store, cfg.Blocks, cfg.BlockBytes)

	srv := transport.NewServer(transport.NewRegistry(store))
	srv.Compression = true
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	report := &WireSatReport{Config: cfg, Env: CaptureBenchEnv()}
	scenarios := []struct {
		name   string
		corpus string
		names  []string
		opts   []transport.DialOption
	}{
		{"plain-v3", "dup", dupNames,
			[]transport.DialOption{transport.WithMaxProtocolVersion(3)}},
		{"dedup-v4", "dup", dupNames,
			[]transport.DialOption{transport.WithChunkCache(transport.NewChunkCache(0))}},
		{"plain-v3", "text", textNames,
			[]transport.DialOption{transport.WithMaxProtocolVersion(3)}},
		{"compress-v4", "text", textNames, nil},
	}
	warm := map[[2]string]WireSatRow{}
	for _, sc := range scenarios {
		c, err := transport.DialContext(ctx, addr, sc.opts...)
		if err != nil {
			return nil, fmt.Errorf("wiresatbench %s/%s: %w", sc.name, sc.corpus, err)
		}
		if sc.name != "plain-v3" && c.Compressed() {
			report.Compressed = true
		}
		for _, pass := range []string{"cold", "warm"} {
			rounds := 1
			if pass == "warm" {
				rounds = cfg.WarmRounds
			}
			row, err := runWireSatPass(ctx, c, sc.names, cfg, rounds)
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("wiresatbench %s/%s/%s: %w", sc.name, sc.corpus, pass, err)
			}
			row.Scenario, row.Corpus, row.Pass = sc.name, sc.corpus, pass
			report.Rows = append(report.Rows, row)
			if pass == "warm" {
				warm[[2]string{sc.name, sc.corpus}] = row
			}
		}
		c.Close()
	}

	if plain := warm[[2]string{"plain-v3", "dup"}]; plain.Seconds > 0 && plain.BytesReceived > 0 {
		if dedup := warm[[2]string{"dedup-v4", "dup"}]; dedup.MBPerSec > 0 {
			report.SpeedupWarmDedup = dedup.MBPerSec / plain.MBPerSec
			if dedup.BytesReceived > 0 {
				report.WireReductionDup = float64(plain.BytesReceived) / float64(dedup.BytesReceived)
			}
		}
	}
	if plain := warm[[2]string{"plain-v3", "text"}]; plain.BytesReceived > 0 {
		if comp := warm[[2]string{"compress-v4", "text"}]; comp.BytesReceived > 0 {
			report.WireReductionText = float64(plain.BytesReceived) / float64(comp.BytesReceived)
		}
	}
	return report, nil
}

// runWireSatPass walks the corpus rounds times with the configured
// workers sharing the one connection, verifying every delivered payload
// length and charging the pass with the connection's counter deltas.
func runWireSatPass(ctx context.Context, c *transport.Client, names []string, cfg WireSatBenchConfig, rounds int) (WireSatRow, error) {
	var row WireSatRow
	total := len(names) * rounds
	startCalls := c.RoundTrips()
	startBytes := c.BytesReceived()
	startDedup := c.DedupeFetches()
	startSaved := c.DedupeBytesSaved()

	var next atomic.Int64
	var payload atomic.Int64
	errs := make([]error, cfg.Workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				name := names[i%len(names)]
				blk, err := c.GetBlock(ctx, name)
				if err != nil {
					errs[w] = fmt.Errorf("%s: %w", name, err)
					return
				}
				if len(blk.Payload) != cfg.BlockBytes {
					errs[w] = fmt.Errorf("%s: got %d payload bytes, want %d", name, len(blk.Payload), cfg.BlockBytes)
					return
				}
				payload.Add(int64(len(blk.Payload)))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return row, err
		}
	}

	row.Fetches = total
	row.PayloadBytes = payload.Load()
	row.WireCalls = c.RoundTrips() - startCalls
	row.BytesReceived = c.BytesReceived() - startBytes
	row.DedupeFetches = c.DedupeFetches() - startDedup
	row.DedupeSaved = c.DedupeBytesSaved() - startSaved
	row.Seconds = elapsed.Seconds()
	if row.Seconds > 0 {
		row.MBPerSec = float64(row.PayloadBytes) / (1 << 20) / row.Seconds
	}
	return row, nil
}

// wireSatDupCorpus registers the dup-heavy corpus: every block is the
// same random (incompressible) base with a small splice of fresh random
// bytes at a block-specific offset, so near-duplicates share most of
// their content-defined chunks but no two payloads are equal.
func wireSatDupCorpus(store *media.Store, blocks, size int) []string {
	rng := rand.New(rand.NewSource(0x59a7))
	base := make([]byte, size)
	rng.Read(base)
	names := make([]string, blocks)
	for i := range names {
		p := append([]byte(nil), base...)
		off := (i * 8191) % (size - wireSatSpliceBytes)
		rng.Read(p[off : off+wireSatSpliceBytes])
		names[i] = fmt.Sprintf("sat-dup-%04d.raw", i)
		store.Put(media.NewBlock(names[i], core.MediumVideo, p, attr.List{}))
	}
	return names
}

// wireSatTextCorpus registers the compressible corpus: repeated prose
// with a block-index stamp, so the flate codec wins big but no payload
// duplicates another and content addresses stay distinct.
func wireSatTextCorpus(store *media.Store, blocks, size int) []string {
	phrase := []byte("the structure is orders of magnitude smaller than the data it coordinates; ")
	base := bytes.Repeat(phrase, size/len(phrase)+1)[:size]
	names := make([]string, blocks)
	for i := range names {
		p := append([]byte(nil), base...)
		copy(p, fmt.Sprintf("block %04d >", i))
		names[i] = fmt.Sprintf("sat-txt-%04d.txt", i)
		store.Put(media.NewBlock(names[i], core.MediumText, p, attr.List{}))
	}
	return names
}
