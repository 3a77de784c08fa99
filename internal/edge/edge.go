// Package edge implements the read-through caching proxy tier (cmifd
// -role edge): a daemon that speaks the full wire protocol (v4) downstream
// to ordinary clients while sourcing everything it serves from a single
// upstream origin.
//
// Blocks are immutable under their content address, so they cache
// forever: a miss fetches upstream once, lands in a crash-safe
// disk-backed LRU (DiskCache) fronted by an in-memory blockCache, and
// every later fetch — across edge restarts — is served locally.
// Documents are mutable, so they are cached under leases: the first
// access subscribes upstream and registers the snapshot locally, and the
// upstream change stream keeps the replica fresh (see lease.go for the
// state machine). Mutations are never applied locally — the edge
// forwards them upstream and lets the authoritative result stream back
// down — so the origin stays the single writer and an edge can never
// fork history.
package edge

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// Defaults for the tunables a Config leaves zero.
const (
	DefaultMemBlocks       = 1024
	DefaultUpstreamTimeout = 10 * time.Second
)

// Config shapes an edge daemon. Origin and CacheDir are required;
// everything else has a serviceable default.
type Config struct {
	// Origin is the upstream server's address (host:port).
	Origin string
	// CacheDir is the disk cache directory; created if absent.
	CacheDir string
	// CacheBytes bounds the disk cache (payload bytes); zero means
	// DefaultCacheBytes.
	CacheBytes int64
	// MemBlocks bounds the in-memory block cache fronting the disk tier;
	// zero means DefaultMemBlocks.
	MemBlocks int
	// UpstreamTimeout bounds each upstream round trip and each lease
	// handshake; zero means DefaultUpstreamTimeout.
	UpstreamTimeout time.Duration
	// LeaseTTL is how long an idle, unwatched document stays leased;
	// zero means DefaultLeaseTTL.
	LeaseTTL time.Duration

	// Serve holds the downstream serving knobs. Serve.Compression covers
	// downstream clients only: the upstream dial negotiates its own
	// compression. Serve.Metrics, when non-nil, receives the
	// edge-specific cmif_edge_* series beside the server's.
	Serve transport.ServeConfig
}

// edgeMetrics are the edge-specific series. Always allocated (against a
// private registry when Config.Metrics is nil) so call sites never
// nil-check.
type edgeMetrics struct {
	blockHits     *metrics.Counter
	blockDiskHits *metrics.Counter
	blockMisses   *metrics.Counter
	docLeases     *metrics.Counter
	leaseResyncs  *metrics.Counter
	leaseExpiries *metrics.Counter
	leasesLost    *metrics.Counter
	forwards      *metrics.Counter
}

func newEdgeMetrics(reg *metrics.Registry) *edgeMetrics {
	return &edgeMetrics{
		blockHits:     reg.Counter("cmif_edge_block_hits_total", "Block fetches the edge answered, from memory, disk or an upstream fill."),
		blockDiskHits: reg.Counter("cmif_edge_block_disk_hits_total", "Block fetches that missed memory but hit the disk cache."),
		blockMisses:   reg.Counter("cmif_edge_block_misses_total", "Block fetches that went upstream."),
		docLeases:     reg.Counter("cmif_edge_doc_leases_total", "Document leases established (upstream subscriptions opened on miss)."),
		leaseResyncs:  reg.Counter("cmif_edge_lease_resyncs_total", "Leases re-snapshotted in place after a gap, apply failure or reconnect."),
		leaseExpiries: reg.Counter("cmif_edge_lease_expiries_total", "Idle leases released by the TTL sweeper."),
		leasesLost:    reg.Counter("cmif_edge_leases_lost_total", "Leases ended because upstream was unrecoverable."),
		forwards:      reg.Counter("cmif_edge_forwards_total", "Mutations relayed upstream (puts, edits)."),
	}
}

// Edge is a running (or startable) edge daemon. It is its own server's
// transport.Backend: the embedded registry holds the leased document
// replicas and their fan-out hub, and the methods below override every
// path that misses (lease, then read; cache tiers, then origin) or
// writes (forward upstream, never apply locally).
type Edge struct {
	*transport.Registry
	cfg Config
	srv *transport.Server
	// up is the one upstream connection. It is multiplexed, so misses,
	// forwards and lease subscriptions share it: at most the origin's
	// advertised in-flight bound of them are on the wire at once, and
	// the rest queue client-side under their upstream timeout.
	up   *transport.Client
	mem  *blockCache
	disk *DiskCache
	lt   *leaseTable
	met  *edgeMetrics

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
	addr    string
}

// New builds an edge over cfg, dialing the origin and opening the
// disk cache. The returned edge is not yet serving; call Listen.
func New(cfg Config) (*Edge, error) {
	if cfg.Origin == "" {
		return nil, fmt.Errorf("edge: no origin configured")
	}
	if cfg.CacheDir == "" {
		return nil, fmt.Errorf("edge: no cache dir configured")
	}
	disk, err := OpenDiskCache(cfg.CacheDir, cfg.CacheBytes)
	if err != nil {
		return nil, fmt.Errorf("edge: open disk cache: %w", err)
	}
	up, err := transport.Dial(cfg.Origin)
	if err != nil {
		return nil, fmt.Errorf("edge: dial origin %s: %w", cfg.Origin, err)
	}
	up.Timeout = cfg.UpstreamTimeout
	if up.Timeout == 0 {
		up.Timeout = DefaultUpstreamTimeout
	}
	memBlocks := cfg.MemBlocks
	if memBlocks <= 0 {
		memBlocks = DefaultMemBlocks
	}
	mreg := cfg.Serve.Metrics
	if mreg == nil {
		mreg = metrics.NewRegistry()
	}

	ctx, cancel := context.WithCancel(context.Background())
	// The registry's media store stays empty: edge blocks live in the
	// memory/disk caches where LRU pressure governs them, and GetBlock
	// reads there.
	e := &Edge{
		Registry: transport.NewRegistry(nil),
		cfg:      cfg,
		up:       up,
		mem:      newBlockCache(memBlocks, mreg),
		disk:     disk,
		lt:       newLeaseTable(),
		met:      newEdgeMetrics(mreg),
		baseCtx:  ctx,
		stop:     cancel,
	}
	e.srv = transport.NewServer(e)
	e.srv.ServeConfig = cfg.Serve
	return e, nil
}

// Listen starts serving downstream on addr and starts the lease sweeper,
// returning the bound address.
func (e *Edge) Listen(addr string) (string, error) {
	bound, err := e.srv.Listen(addr)
	if err != nil {
		return "", err
	}
	e.addr = bound
	e.wg.Add(1)
	go e.sweepLeases(e.baseCtx)
	return bound, nil
}

// Addr reports the bound downstream address ("" before Listen).
func (e *Edge) Addr() string { return e.addr }

// Shutdown drains the downstream server (in-flight requests finish),
// stops the lease pumps and sweeper, and closes the upstream connection.
func (e *Edge) Shutdown(ctx context.Context) error {
	err := e.srv.Shutdown(ctx)
	e.teardown()
	return err
}

// Close force-closes everything.
func (e *Edge) Close() error {
	err := e.srv.Close()
	e.teardown()
	return err
}

func (e *Edge) teardown() {
	e.stop()
	e.wg.Wait()
	e.up.Close()
}

// Leases reports the live lease count (tests and the stats endpoint).
func (e *Edge) Leases() int { return e.lt.Len() }

// DiskStats reports the disk tier's occupancy and traffic.
func (e *Edge) DiskStats() DiskStats { return e.disk.Stats() }

// UpstreamRoundTrips counts wire round trips to the origin — the
// numerator of the origin-offload measurement.
func (e *Edge) UpstreamRoundTrips() int64 { return e.up.RoundTrips() }

// upstreamTimeout is the per-round-trip bound toward the origin.
func (e *Edge) upstreamTimeout() time.Duration {
	if e.cfg.UpstreamTimeout > 0 {
		return e.cfg.UpstreamTimeout
	}
	return DefaultUpstreamTimeout
}

// leaseTTL is the idle bound before an unwatched lease is released.
func (e *Edge) leaseTTL() time.Duration {
	if e.cfg.LeaseTTL > 0 {
		return e.cfg.LeaseTTL
	}
	return DefaultLeaseTTL
}

// fetchBlock is the read-through path: memory, then disk, then origin
// (landing the fetch on disk for the next restart). The memory tier's
// singleflight collapses concurrent misses for one name into a single
// disk read or upstream round trip.
func (e *Edge) fetchBlock(ctx context.Context, name string) (*media.Block, error) {
	return e.mem.getOrFetch(ctx, name, func(ctx context.Context) (*media.Block, error) {
		if b, ok := e.disk.Get(name); ok {
			e.met.blockDiskHits.Inc()
			return b, nil
		}
		b, err := e.up.GetBlock(ctx, name)
		if err != nil {
			return nil, err
		}
		e.met.blockMisses.Inc()
		e.disk.Put(name, b)
		return b, nil
	})
}

// --- transport.Backend ---

// upstreamCtx bounds one upstream round trip.
func (e *Edge) upstreamCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(e.baseCtx, e.upstreamTimeout())
}

// GetDoc serves the leased replica, leasing the document upstream first
// when the registry misses.
func (e *Edge) GetDoc(name string) (*transport.Entry, bool) {
	if ent, ok := e.Registry.GetDoc(name); ok {
		return ent, true
	}
	if !e.leaseDoc(name) {
		return nil, false
	}
	return e.Registry.GetDoc(name)
}

// Subscribe registers a downstream watcher on the local fan-out hub,
// leasing the document into the edge on demand.
func (e *Edge) Subscribe(name, subtree string, queueCap, maxSubs int) (*transport.Subscriber, error) {
	sub, err := e.Registry.Subscribe(name, subtree, queueCap, maxSubs)
	if errors.Is(err, transport.ErrNotFound) && e.leaseDoc(name) {
		sub, err = e.Registry.Subscribe(name, subtree, queueCap, maxSubs)
	}
	return sub, err
}

// GetBlock answers from memory, else the disk tier or the origin: only a
// miss builds the upstream timeout context. Errors (including upstream
// down) degrade to not-found: the client sees the same answer it would for
// a block that never existed, and retries re-drive the fetch.
func (e *Edge) GetBlock(name string) (*media.Block, bool) {
	b, ok := e.mem.get(name)
	if !ok {
		ctx, cancel := e.upstreamCtx()
		defer cancel()
		var err error
		if b, err = e.fetchBlock(ctx, name); err != nil {
			return nil, false
		}
	}
	e.met.blockHits.Inc()
	return b, true
}

// StoreDoc relays a document registration to the origin. The edge does
// not register it locally: if anyone here watches the name, the lease
// pump receives the replacement snapshot; otherwise the next read leases
// the fresh version.
func (e *Edge) StoreDoc(name string, d *core.Document) error {
	ctx, cancel := e.upstreamCtx()
	defer cancel()
	e.met.forwards.Inc()
	if err := e.up.PutDoc(ctx, name, d, transport.EncodingBinary); err != nil {
		return fmt.Errorf("upstream: %w", err)
	}
	return nil
}

// StoreBlock relays a block put to the origin and caches the block
// locally on success — the uploader (or its neighbours) will fetch it
// back soon.
func (e *Edge) StoreBlock(b *media.Block) (string, error) {
	ctx, cancel := e.upstreamCtx()
	defer cancel()
	e.met.forwards.Inc()
	id, err := e.up.PutBlock(ctx, b)
	if err != nil {
		return "", fmt.Errorf("upstream: %w", err)
	}
	e.disk.Put(b.Name, b)
	return id, nil
}

// SubmitEdit relays an edit batch to the origin. The new generation
// comes back on the wire twice — here as the return value, and through
// the lease subscription as the delta that actually updates the replica.
func (e *Edge) SubmitEdit(name string, recs []core.ChangeRecord) (uint64, error) {
	ctx, cancel := e.upstreamCtx()
	defer cancel()
	e.met.forwards.Inc()
	return e.up.SubmitEdit(ctx, name, recs)
}

// ListDocs asks the origin for the authoritative catalogue, falling back
// to the locally leased names when upstream is unreachable (or only
// those were asked for).
func (e *Edge) ListDocs(localOnly bool) []string {
	if !localOnly {
		ctx, cancel := e.upstreamCtx()
		defer cancel()
		if names, err := e.up.ListDocs(ctx); err == nil {
			return names
		}
	}
	return e.DocNames()
}
