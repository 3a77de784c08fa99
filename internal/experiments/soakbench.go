package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/edge"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// The soak bench (scenario S5) drives a LIVE daemon — not an in-process
// server — with a realistic mixed workload for a sustained period: a
// generated multi-shape corpus is loaded first, then read/fetch/query/
// edit/subscribe/edge traffic runs against it from several connections
// (the edge class reads through an in-process edge cache fronting the
// daemon), then a deliberate overload phase floods the admission
// controller from many more connections than it has slots for. Client-observed latency is
// recorded per traffic class with p50/p99/p999 read-outs, the daemon's
// /metrics endpoint is scraped (both Prometheus text and JSON), and the
// report carries everything CheckSoakReport needs to enforce the SLOs:
// admitted requests stay fast, overload sheds promptly with ErrBusy, and
// the metrics endpoint tells the same story as the clients.

// SoakSLO is the latency budget enforced on every steady traffic class
// and on admitted requests during overload, in milliseconds.
type SoakSLO struct {
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p999_ms"`
}

// SoakBenchConfig sizes a soak run. Addr and MetricsURL are required:
// the soak engine never starts a server of its own (cmifsoak's
// self-serve mode does that). The zero value of everything else is
// usable: 60 s of steady traffic from 4 connections, a 5 s overload
// burst from 8 more, a 2-round mixed corpus, and a 50/250/1000 ms
// latency budget.
type SoakBenchConfig struct {
	// Addr is the daemon's wire address; MetricsURL its metrics endpoint.
	Addr       string `json:"addr"`
	MetricsURL string `json:"metrics_url"`
	// Seconds is the steady mixed-traffic phase length; OverloadSeconds
	// the flood phase appended after it.
	Seconds         float64 `json:"seconds"`
	OverloadSeconds float64 `json:"overload_seconds"`
	// Workers is the steady-phase connection count; OverloadConns how
	// many flooding connections the overload phase adds.
	Workers       int `json:"workers"`
	OverloadConns int `json:"overload_conns"`
	// CorpusSeed and CorpusRounds shape the generated corpus.
	CorpusSeed   uint64 `json:"corpus_seed"`
	CorpusRounds int    `json:"corpus_rounds"`
	// SLO is the latency budget CheckSoakReport enforces.
	SLO SoakSLO `json:"slo"`
}

func (c *SoakBenchConfig) fillDefaults() {
	if c.Seconds <= 0 {
		c.Seconds = 60
	}
	if c.OverloadSeconds <= 0 {
		c.OverloadSeconds = 5
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.OverloadConns <= 0 {
		c.OverloadConns = 8
	}
	if c.CorpusRounds <= 0 {
		c.CorpusRounds = 2
	}
	if c.SLO.P50MS <= 0 {
		c.SLO.P50MS = 50
	}
	if c.SLO.P99MS <= 0 {
		c.SLO.P99MS = 250
	}
	if c.SLO.P999MS <= 0 {
		c.SLO.P999MS = 1000
	}
}

// SoakRow aggregates one traffic class: read (single-block gets), fetch
// (batched gets), query (document/descriptor/listing reads), edit
// (block and document puts), subscribe (a live-document subscription
// opened, snapshot received, closed — the v3 watch handshake), edge
// (block and document reads through an in-process edge cache fronting
// the daemon, so a warm tier serves most of them without touching the
// origin), and overload (the flood phase; Busy counts its ErrBusy
// sheds, the quantiles cover only admitted requests).
type SoakRow struct {
	Class  string  `json:"class"`
	Ops    int64   `json:"ops"`
	Errors int64   `json:"errors"`
	Busy   int64   `json:"busy"`
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p999_ms"`
}

// SoakBenchReport is the machine-readable result set cmifsoak writes to
// its -out file.
type SoakBenchReport struct {
	Config SoakBenchConfig `json:"config"`
	Env    BenchEnv        `json:"env"`
	// Rows holds the four steady classes plus the overload row.
	Rows []SoakRow `json:"rows"`
	// Seconds is the measured steady-phase wall clock; Throughput its
	// completed operations per second.
	Seconds    float64 `json:"measured_seconds"`
	Throughput float64 `json:"ops_per_sec"`
	// OverloadBusy is how many flood requests were shed with ErrBusy —
	// the proof the admission controller degraded gracefully instead of
	// queueing without bound.
	OverloadBusy int64 `json:"overload_busy"`
	// ScrapeStatus/ScrapeJSONStatus are the HTTP statuses of the final
	// Prometheus-text and JSON scrapes; PromBytes sizes the text payload.
	ScrapeStatus     int `json:"scrape_status"`
	ScrapeJSONStatus int `json:"scrape_json_status"`
	PromBytes        int `json:"prom_bytes"`
	// ServerCounters is the daemon's counter set from the final scrape;
	// ServerLatency the daemon-side request histograms, keyed like the
	// Prometheus families (cmif_request_seconds{op="getblks"}, ...).
	ServerCounters map[string]int64                     `json:"server_counters"`
	ServerLatency  map[string]metrics.HistogramSnapshot `json:"server_latency"`
}

// JSON renders the report for cmifsoak's -out file.
func (r *SoakBenchReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Table renders the report in the experiment-table format.
func (r *SoakBenchReport) Table() *Table {
	t := &Table{
		ID:     "S5",
		Title:  "production soak: mixed workload against a live daemon",
		Header: []string{"class", "ops", "errors", "busy", "p50 ms", "p99 ms", "p999 ms"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Class,
			fmt.Sprintf("%d", row.Ops),
			fmt.Sprintf("%d", row.Errors),
			fmt.Sprintf("%d", row.Busy),
			fmt.Sprintf("%.2f", row.P50MS),
			fmt.Sprintf("%.2f", row.P99MS),
			fmt.Sprintf("%.2f", row.P999MS),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("steady throughput %.0f ops/s over %.1fs; overload shed %d requests via busy errors",
			r.Throughput, r.Seconds, r.OverloadBusy),
		fmt.Sprintf("metrics scrape: text %d (%d bytes), json %d",
			r.ScrapeStatus, r.PromBytes, r.ScrapeJSONStatus),
		"expect: admitted latency within the SLO even while the flood is being shed")
	return t
}

// soakClass accumulates one traffic class concurrently: atomic counters
// plus a histogram for the latency quantiles.
type soakClass struct {
	ops, errs, busy atomic.Int64
	lat             *metrics.Histogram
}

func (c *soakClass) observe(start time.Time, err error) {
	switch {
	case err == nil:
		c.ops.Add(1)
		c.lat.Observe(time.Since(start))
	case errors.Is(err, transport.ErrBusy):
		c.busy.Add(1)
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		// The phase deadline tore the operation down mid-flight; that is
		// the harness's doing, not a server failure.
	default:
		c.errs.Add(1)
	}
}

func (c *soakClass) row(class string) SoakRow {
	return SoakRow{
		Class:  class,
		Ops:    c.ops.Load(),
		Errors: c.errs.Load(),
		Busy:   c.busy.Load(),
		P50MS:  c.lat.Quantile(0.50) * 1000,
		P99MS:  c.lat.Quantile(0.99) * 1000,
		P999MS: c.lat.Quantile(0.999) * 1000,
	}
}

func newSoakClass(reg *metrics.Registry, class string) *soakClass {
	return &soakClass{lat: reg.Histogram("soak_latency_seconds", "client-observed latency", "class", class)}
}

// SoakBench loads the corpus into the daemon at cfg.Addr, runs the
// steady and overload phases, scrapes cfg.MetricsURL, and returns the
// report. The context bounds the whole run.
func SoakBench(ctx context.Context, cfg SoakBenchConfig) (*SoakBenchReport, error) {
	cfg.fillDefaults()
	if cfg.Addr == "" || cfg.MetricsURL == "" {
		return nil, fmt.Errorf("soakbench: Addr and MetricsURL are required (cmifsoak self-serves when -addr is empty)")
	}

	set, err := corpus.GenerateSet(cfg.CorpusSeed, cfg.CorpusRounds)
	if err != nil {
		return nil, err
	}
	blockNames, docNames, docs, err := soakPopulate(ctx, cfg.Addr, set)
	if err != nil {
		return nil, fmt.Errorf("soakbench: populate: %w", err)
	}
	if len(blockNames) == 0 || len(docNames) == 0 {
		return nil, fmt.Errorf("soakbench: corpus generated no blocks or documents")
	}

	report := &SoakBenchReport{Config: cfg, Env: CaptureBenchEnv()}
	reg := metrics.NewRegistry()
	classes := map[string]*soakClass{}
	for _, name := range []string{"read", "fetch", "query", "edit", "subscribe", "edge", "overload"} {
		classes[name] = newSoakClass(reg, name)
	}

	// The edge class reads through an in-process edge cache fronting the
	// daemon — the tier the deployment story puts between clients and the
	// origin. Its disk cache is throwaway; the point is that reads
	// through a warming tier stay within the same SLO as direct reads
	// while the steady mix churns the origin underneath it.
	edgeDir, err := os.MkdirTemp("", "cmifsoak-edge-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(edgeDir)
	tier, err := edge.New(edge.Config{Origin: cfg.Addr, CacheDir: edgeDir})
	if err != nil {
		return nil, fmt.Errorf("soakbench: edge tier: %w", err)
	}
	defer tier.Close()
	edgeAddr, err := tier.Listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("soakbench: edge tier: %w", err)
	}

	// --- steady phase -------------------------------------------------
	steady := time.Duration(cfg.Seconds * float64(time.Second))
	deadline := time.Now().Add(steady)
	start := time.Now()
	var wg sync.WaitGroup
	workerErrs := make([]error, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			workerErrs[w] = soakWorker(ctx, cfg, w, edgeAddr, deadline, blockNames, docNames, docs, classes)
		}(w)
	}
	wg.Wait()
	report.Seconds = time.Since(start).Seconds()
	for _, werr := range workerErrs {
		if werr != nil {
			return nil, fmt.Errorf("soakbench: worker: %w", werr)
		}
	}

	// --- overload phase -----------------------------------------------
	if err := soakOverload(ctx, cfg, blockNames, classes["overload"]); err != nil {
		return nil, fmt.Errorf("soakbench: overload: %w", err)
	}

	// --- report -------------------------------------------------------
	var steadyOps int64
	for _, name := range []string{"read", "fetch", "query", "edit", "subscribe", "edge", "overload"} {
		row := classes[name].row(name)
		report.Rows = append(report.Rows, row)
		if name != "overload" {
			steadyOps += row.Ops
		} else {
			report.OverloadBusy = row.Busy
		}
	}
	if report.Seconds > 0 {
		report.Throughput = float64(steadyOps) / report.Seconds
	}
	if err := soakScrape(ctx, cfg.MetricsURL, report); err != nil {
		return nil, fmt.Errorf("soakbench: scrape: %w", err)
	}
	return report, nil
}

// soakPopulate loads the generated corpus over the wire: every document
// registered by name, every external block put. It returns the names the
// traffic phases draw from.
func soakPopulate(ctx context.Context, addr string, set []corpus.Named) (blockNames, docNames []string, docs []*core.Document, err error) {
	c, err := transport.DialContext(ctx, addr)
	if err != nil {
		return nil, nil, nil, err
	}
	defer c.Close()
	for _, n := range set {
		if err := c.PutDoc(ctx, n.Name, n.Doc, transport.EncodingBinary); err != nil {
			return nil, nil, nil, fmt.Errorf("put doc %s: %w", n.Name, err)
		}
		docNames = append(docNames, n.Name)
		docs = append(docs, n.Doc)
		var perr error
		n.Store.Each(func(b *media.Block) bool {
			if _, perr = c.PutBlock(ctx, b); perr != nil {
				return false
			}
			blockNames = append(blockNames, b.Name)
			return true
		})
		if perr != nil {
			return nil, nil, nil, fmt.Errorf("put blocks for %s: %w", n.Name, perr)
		}
	}
	return blockNames, docNames, docs, nil
}

// soakWorker drives one steady-phase connection with the
// 38/18/18/10/8/8 read/fetch/query/edit/subscribe/edge mix until the
// deadline. Draws are deterministic in (cfg.CorpusSeed, w).
func soakWorker(ctx context.Context, cfg SoakBenchConfig, w int, edgeAddr string, deadline time.Time,
	blockNames, docNames []string, docs []*core.Document, classes map[string]*soakClass) error {
	c, err := transport.DialContext(ctx, cfg.Addr)
	if err != nil {
		return err
	}
	defer c.Close()
	c.Timeout = 5 * time.Second
	ec, err := transport.DialContext(ctx, edgeAddr)
	if err != nil {
		return err
	}
	defer ec.Close()
	ec.Timeout = 5 * time.Second

	// A tiny deterministic generator keeps the mix reproducible without
	// sharing a lock between workers.
	state := cfg.CorpusSeed ^ (uint64(w)+1)*0x9e3779b97f4a7c15
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}

	editSeq := 0
	for time.Now().Before(deadline) && ctx.Err() == nil {
		roll := next() % 100
		start := time.Now()
		switch {
		case roll < 38: // read: one block
			name := blockNames[next()%uint64(len(blockNames))]
			_, err := c.GetBlock(ctx, name)
			classes["read"].observe(start, err)
		case roll < 56: // fetch: a batch
			n := 2 + int(next()%7)
			names := make([]string, n)
			for i := range names {
				names[i] = blockNames[next()%uint64(len(blockNames))]
			}
			_, err := c.GetBlocks(ctx, names)
			classes["fetch"].observe(start, err)
		case roll < 74: // query: listings, descriptors, documents
			switch next() % 3 {
			case 0:
				_, err = c.ListDocs(ctx)
			case 1:
				n := 1 + int(next()%4)
				names := make([]string, n)
				for i := range names {
					names[i] = blockNames[next()%uint64(len(blockNames))]
				}
				_, err = c.GetDescriptors(ctx, names)
			default:
				name := docNames[next()%uint64(len(docNames))]
				_, err = c.GetDoc(ctx, name, transport.GetDocOptions{Encoding: transport.EncodingBinary})
			}
			classes["query"].observe(start, err)
		case roll < 84: // edit: put a fresh block or re-register a document
			if next()%2 == 0 {
				editSeq++
				payload := fmt.Sprintf("soak edit w%d #%d", w, editSeq)
				b := media.NewBlock(fmt.Sprintf("soak-w%d-%d.txt", w, editSeq),
					core.MediumText, []byte(payload), attr.List{})
				_, err = c.PutBlock(ctx, b)
			} else {
				i := next() % uint64(len(docNames))
				err = c.PutDoc(ctx, docNames[i], docs[i], transport.EncodingBinary)
			}
			classes["edit"].observe(start, err)
		case roll < 92: // subscribe: the v3 live-document watch handshake
			name := docNames[next()%uint64(len(docNames))]
			sub, serr := c.SubscribeDoc(ctx, name)
			if serr == nil {
				// The measured operation is the handshake — subscribe,
				// receive the snapshot, release the fan-out queue. Long-lived
				// watchers are the live-document tests' subject; the soak cares
				// that opening one against live mixed traffic stays within the SLO.
				serr = sub.Close()
			}
			classes["subscribe"].observe(start, serr)
		default: // edge: a block or document read through the caching tier
			if next()%3 == 0 {
				name := docNames[next()%uint64(len(docNames))]
				_, err = ec.GetDoc(ctx, name, transport.GetDocOptions{Encoding: transport.EncodingBinary})
			} else {
				name := blockNames[next()%uint64(len(blockNames))]
				_, err = ec.GetBlock(ctx, name)
			}
			classes["edge"].observe(start, err)
		}
	}
	return nil
}

// soakOverload floods the daemon from cfg.OverloadConns connections,
// each keeping a full pipeline of batched whole-corpus fetches in
// flight, so the aggregate demand exceeds the admission bound. Batches
// rather than single blocks: their fat responses exercise the write
// path, which is where a server saturates first when clients cannot
// drain fast enough, and slot-per-lifetime admission turns that
// backpressure into prompt sheds. Admitted requests land in the
// overload histogram; sheds count as Busy.
func soakOverload(ctx context.Context, cfg SoakBenchConfig, blockNames []string, cls *soakClass) error {
	deadline := time.Now().Add(time.Duration(cfg.OverloadSeconds * float64(time.Second)))
	var wg sync.WaitGroup
	errs := make([]error, cfg.OverloadConns)
	for i := 0; i < cfg.OverloadConns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := transport.DialContext(ctx, cfg.Addr)
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			c.Timeout = 5 * time.Second
			// One goroutine per advertised in-flight slot keeps the
			// connection's pipeline saturated for the whole phase.
			var cwg sync.WaitGroup
			for g := 0; g < 16; g++ {
				cwg.Add(1)
				go func(g int) {
					defer cwg.Done()
					batch := make([]string, 0, 24)
					for k := 0; k < cap(batch); k++ {
						batch = append(batch, blockNames[(i+g+k)%len(blockNames)])
					}
					for time.Now().Before(deadline) && ctx.Err() == nil {
						start := time.Now()
						_, err := c.GetBlocks(ctx, batch)
						cls.observe(start, err)
					}
				}(g)
			}
			cwg.Wait()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// soakScrape performs the final metrics scrapes: Prometheus text for
// liveness and shape, JSON for the structured server-side story.
func soakScrape(ctx context.Context, url string, report *SoakBenchReport) error {
	get := func(u string) (int, []byte, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
		if err != nil {
			return 0, nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, body, err
	}

	status, body, err := get(url)
	if err != nil {
		return err
	}
	report.ScrapeStatus = status
	report.PromBytes = len(body)
	if !strings.Contains(string(body), "cmif_requests_total") {
		return fmt.Errorf("prometheus scrape lacks cmif_requests_total (%d bytes)", len(body))
	}

	sep := "?"
	if strings.Contains(url, "?") {
		sep = "&"
	}
	status, body, err = get(url + sep + "format=json")
	if err != nil {
		return err
	}
	report.ScrapeJSONStatus = status
	var snap metrics.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return fmt.Errorf("json scrape: %w", err)
	}
	report.ServerCounters = snap.Counters
	report.ServerLatency = map[string]metrics.HistogramSnapshot{}
	for name, h := range snap.Histograms {
		if strings.HasPrefix(name, "cmif_request_seconds") || strings.HasPrefix(name, "cmif_wal_append_seconds") {
			report.ServerLatency[name] = h
		}
	}
	return nil
}
