package cmif

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/edge"
	"repro/internal/transport"
)

// Edge is the facade over the read-through caching proxy tier (cmifd
// -role edge): a daemon that serves the full interchange protocol
// downstream while sourcing everything from one upstream origin. Blocks
// are cached on disk forever (content addressing makes them immutable)
// behind an in-memory LRU; documents are leased — the first access
// subscribes the edge to the origin's change stream, and upstream edits
// invalidate the cached replica incrementally. Mutations forward
// upstream, so the origin stays the single writer.
//
// Edge implements Fetcher through a loopback connection to its own
// listener, so a Pipeline or a Chain can resolve against a running edge
// exactly as it would against an origin Client.
type Edge struct {
	inner *edge.Edge

	mu   sync.Mutex
	loop *Client // lazily dialed loopback client backing the Fetcher surface
}

// edgeConfig collects the edge options.
type edgeConfig struct {
	cfg edge.Config
}

// EdgeOption configures NewEdge. The edge-only options below satisfy
// nothing else, so passing one to NewServer or JoinCluster is a compile
// error; the shared serving knobs (ServingOption) satisfy it too.
type EdgeOption interface{ applyEdge(*edgeConfig) }

// edgeFunc is an option only NewEdge understands.
type edgeFunc func(*edgeConfig)

func (f edgeFunc) applyEdge(c *edgeConfig) { f(c) }

// WithOrigin names the upstream server the edge reads through to
// (host:port). Required.
func WithOrigin(addr string) EdgeOption {
	return edgeFunc(func(c *edgeConfig) { c.cfg.Origin = addr })
}

// WithCacheDir roots the edge's crash-safe disk block cache at dir
// (created if absent). Required: the disk tier is what lets a restarted
// edge serve its corpus without refetching the world.
func WithCacheDir(dir string) EdgeOption {
	return edgeFunc(func(c *edgeConfig) { c.cfg.CacheDir = dir })
}

// WithCacheBytes bounds the disk cache's payload bytes; least recently
// used blocks are evicted past the budget. Zero (the default) means
// 256 MiB.
func WithCacheBytes(n int64) EdgeOption {
	return edgeFunc(func(c *edgeConfig) { c.cfg.CacheBytes = n })
}

// WithEdgeMemBlocks bounds the in-memory block cache fronting the disk
// tier. Zero (the default) means 1024 blocks.
func WithEdgeMemBlocks(n int) EdgeOption {
	return edgeFunc(func(c *edgeConfig) { c.cfg.MemBlocks = n })
}

// WithLeaseTTL bounds how long an idle, unwatched document stays leased
// before the edge releases its upstream subscription and drops the
// cached replica (the next access re-leases). Zero (the default) means
// 2 minutes.
func WithLeaseTTL(d time.Duration) EdgeOption {
	return edgeFunc(func(c *edgeConfig) { c.cfg.LeaseTTL = d })
}

// WithUpstreamPool sets how many origin connections the edge spreads its
// misses, forwards and lease subscriptions across. Zero (the default)
// means 4.
func WithUpstreamPool(n int) EdgeOption {
	return edgeFunc(func(c *edgeConfig) { c.cfg.UpstreamPool = n })
}

// WithUpstreamTimeout bounds each upstream round trip and lease
// handshake. Zero (the default) means 10 seconds.
func WithUpstreamTimeout(d time.Duration) EdgeOption {
	return edgeFunc(func(c *edgeConfig) { c.cfg.UpstreamTimeout = d })
}

// WithEdgeCompression is WithServerCompression under its older name.
// It stays as a forward because the benchmark harness in
// bench/mark/tiers.go calls it, and that harness changes only in a
// benchmark change.
func WithEdgeCompression(on bool) EdgeOption { return WithServerCompression(on) }

// WithEdgeMetrics is WithServerMetrics under its older name. It stays
// as a forward because the benchmark harness in bench/mark/tiers.go
// calls it, and that harness changes only in a benchmark change.
func WithEdgeMetrics(m *Metrics) EdgeOption { return WithServerMetrics(m) }

// DiskCacheStats snapshots the disk tier's occupancy and traffic.
type DiskCacheStats = edge.DiskStats

// NewEdge builds an edge daemon: it dials the origin, opens (or
// recovers) the disk cache, and is then ready to Listen.
func NewEdge(opts ...EdgeOption) (*Edge, error) {
	cfg := edgeConfig{cfg: edge.Config{Serve: defaultServing()}}
	for _, o := range opts {
		o.applyEdge(&cfg)
	}
	inner, err := edge.New(cfg.cfg)
	if err != nil {
		return nil, err
	}
	return &Edge{inner: inner}, nil
}

// Listen starts serving downstream on addr ("127.0.0.1:0" picks a free
// port) and returns the bound address.
func (e *Edge) Listen(addr string) (string, error) {
	return e.inner.Listen(addr)
}

// Addr reports the bound downstream address ("" before Listen).
func (e *Edge) Addr() string { return e.inner.Addr() }

// Shutdown drains downstream connections, stops the lease pumps and
// closes the upstream pool. When ctx expires first, the remaining
// connections are force-closed.
func (e *Edge) Shutdown(ctx context.Context) error {
	e.closeLoopback()
	return e.inner.Shutdown(ctx)
}

// Close force-closes everything immediately.
func (e *Edge) Close() error {
	e.closeLoopback()
	return e.inner.Close()
}

func (e *Edge) closeLoopback() {
	e.mu.Lock()
	loop := e.loop
	e.loop = nil
	e.mu.Unlock()
	if loop != nil {
		_ = loop.Close()
	}
}

// Leases reports how many documents the edge currently holds under an
// upstream lease.
func (e *Edge) Leases() int { return e.inner.Leases() }

// DiskStats reports the disk cache tier's occupancy and traffic.
func (e *Edge) DiskStats() DiskCacheStats { return e.inner.DiskStats() }

// UpstreamRoundTrips counts wire round trips the edge has made to its
// origin — with downstream request counts, the origin-offload
// measurement.
func (e *Edge) UpstreamRoundTrips() int64 { return e.inner.UpstreamRoundTrips() }

// loopback returns the lazily dialed client over the edge's own
// listener that backs the Fetcher surface.
func (e *Edge) loopback(ctx context.Context) (*Client, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.loop != nil {
		return e.loop, nil
	}
	addr := e.inner.Addr()
	if addr == "" {
		return nil, fmt.Errorf("cmif: edge is not listening; call Listen before using it as a Fetcher")
	}
	c, err := Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	e.loop = c
	return c, nil
}

// Blocks implements Fetcher against the edge's cache tiers (read-through
// to the origin on a miss).
func (e *Edge) Blocks(ctx context.Context, names []string) ([]*Block, error) {
	c, err := e.loopback(ctx)
	if err != nil {
		return nil, err
	}
	return c.Blocks(ctx, names)
}

// Descriptors implements Fetcher against the edge's cache tiers.
func (e *Edge) Descriptors(ctx context.Context, names []string) (map[string]AttrList, error) {
	c, err := e.loopback(ctx)
	if err != nil {
		return nil, err
	}
	return c.Descriptors(ctx, names)
}

// OpenDoc implements Fetcher: the document is leased from the origin on
// first access and served from the live local replica afterwards.
func (e *Edge) OpenDoc(ctx context.Context, name string) (*Document, error) {
	c, err := e.loopback(ctx)
	if err != nil {
		return nil, err
	}
	return c.OpenDoc(ctx, name)
}

// openSub implements subSource over the loopback connection: downstream
// subscribers ride the edge's local fan-out hub, which the upstream
// lease keeps fresh.
func (e *Edge) openSub(ctx context.Context, name, subtree string) (*transport.DocSubscription, error) {
	c, err := e.loopback(ctx)
	if err != nil {
		return nil, err
	}
	return c.openSub(ctx, name, subtree)
}

// Subscribe implements Fetcher: a live replica fed by the edge's
// fan-out hub, which the upstream lease keeps current.
func (e *Edge) Subscribe(ctx context.Context, name string, opts ...SubscribeOption) (*Subscription, error) {
	return openSubscription(ctx, e, name, opts)
}
