package cmif

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// Client talks to an interchange server over one or more pooled
// connections. Safe for concurrent use: concurrent operations are
// pipelined and multiplexed over each connection, and WithPoolSize
// spreads them across several connections. Every operation takes a
// context.Context whose deadline and cancellation are enforced on the
// wire; a cancelled call abandons only that request — the connection
// survives.
type Client struct {
	conns []*transport.Client
	next  atomic.Uint32
}

// clientConfig collects the dial options.
type clientConfig struct {
	timeout    time.Duration
	cache      *BlockCache
	chunkCache *transport.ChunkCache
	poolSize   int
	compress   bool
}

// DialOption configures Dial. Dial options are a distinct type from the
// server's ServeOption and the edge tier's EdgeOption, so mixing option
// sets across constructors is a compile error rather than a silent
// misconfiguration.
type DialOption func(*clientConfig)

// WithRequestTimeout bounds each round trip that carries no context
// deadline of its own. Zero (the default) means unbounded.
func WithRequestTimeout(d time.Duration) DialOption {
	return func(c *clientConfig) { c.timeout = d }
}

// WithPoolSize dials n connections instead of one and spreads operations
// across them round-robin. Each connection already pipelines many
// concurrent requests, so a small pool goes a long way. Values below 1
// mean 1.
func WithPoolSize(n int) DialOption {
	return func(c *clientConfig) { c.poolSize = n }
}

// WithCompression turns negotiated per-frame compression on or off for
// this client (the default is on). It takes effect only when the server
// has compression enabled too; either side declining leaves frames
// plain.
func WithCompression(on bool) DialOption {
	return func(c *clientConfig) { c.compress = on }
}

// ChunkCacheStats snapshots the effectiveness counters of a client's
// chunk cache (WithChunkCache).
type ChunkCacheStats = transport.ChunkCacheStats

// WithChunkCache gives the client a private LRU cache of content-defined
// chunks with the given byte budget (a non-positive budget gets 64 MiB),
// enabling dedupe block fetches: a client holding most of a block's
// chunks fetches only the manifest plus the missing chunks, so warm
// re-fetches of near-duplicate blocks move only what it does not
// already hold. Shared across the client's pooled connections.
func WithChunkCache(budgetBytes int64) DialOption {
	return func(c *clientConfig) { c.chunkCache = transport.NewChunkCache(budgetBytes) }
}

// BlockCache is a client-side LRU block cache with singleflight miss
// de-duplication. Safe for concurrent use; shared automatically across a
// client's pooled connections, and shareable across clients with
// WithSharedCache.
type BlockCache = transport.BlockCache

// CacheStats snapshots a BlockCache's effectiveness counters.
type CacheStats = transport.CacheStats

// NewBlockCache returns a cache holding up to size blocks (a non-positive
// size gets a default of 256). Attach it to clients with WithSharedCache.
func NewBlockCache(size int) *BlockCache { return transport.NewBlockCache(size) }

// WithCache gives the client a private LRU block cache holding up to size
// blocks: repeated Block fetches of the same name hit the network once,
// and concurrent fetches of one block collapse into a single wire call.
// The cache is shared across the client's pooled connections. To share a
// cache across clients, use WithSharedCache.
func WithCache(size int) DialOption {
	return func(c *clientConfig) { c.cache = transport.NewBlockCache(size) }
}

// WithSharedCache attaches an existing cache (NewBlockCache), so several
// clients serve block fetches from common local memory and de-duplicate
// concurrent misses process-wide.
func WithSharedCache(cache *BlockCache) DialOption {
	return func(c *clientConfig) { c.cache = cache }
}

// Dial connects to an interchange server, honouring ctx during connection
// establishment and the protocol handshake. A server that does not speak
// the wire protocol's one version (v4) fails the dial with
// ErrUnsupported.
func Dial(ctx context.Context, addr string, opts ...DialOption) (*Client, error) {
	cfg := clientConfig{poolSize: 1, compress: true}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.poolSize < 1 {
		cfg.poolSize = 1
	}
	c := &Client{}
	for i := 0; i < cfg.poolSize; i++ {
		dialOpts := []transport.DialOption{transport.WithFrameCompression(cfg.compress)}
		if cfg.chunkCache != nil {
			dialOpts = append(dialOpts, transport.WithChunkCache(cfg.chunkCache))
		}
		tc, err := transport.DialContext(ctx, addr, dialOpts...)
		if err != nil {
			c.Close()
			return nil, wireError(err)
		}
		tc.Timeout = cfg.timeout
		tc.Cache = cfg.cache
		c.conns = append(c.conns, tc)
	}
	return c, nil
}

// pick returns the connection the next operation rides: round-robin over
// the pool.
func (c *Client) pick() *transport.Client {
	if len(c.conns) == 1 {
		return c.conns[0]
	}
	return c.conns[int(c.next.Add(1)-1)%len(c.conns)]
}

// Close says goodbye on every pooled connection and closes them all.
func (c *Client) Close() error {
	var first error
	for _, tc := range c.conns {
		if err := tc.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// PoolSize reports how many connections the client pools.
func (c *Client) PoolSize() int { return len(c.conns) }

// Compressed reports whether negotiated frame compression is active on
// the pooled connections.
func (c *Client) Compressed() bool {
	return len(c.conns) > 0 && c.conns[0].Compressed()
}

// ChunkCacheStats snapshots the attached chunk cache's counters; ok is
// false when the client was dialled without one.
func (c *Client) ChunkCacheStats() (stats ChunkCacheStats, ok bool) {
	if len(c.conns) == 0 || c.conns[0].ChunkCache == nil {
		return ChunkCacheStats{}, false
	}
	return c.conns[0].ChunkCache.Stats(), true
}

// DedupeFetches reports how many block fetches across the pool were
// served by the chunk-dedupe path (manifest plus missing chunks) rather
// than a whole-payload transfer.
func (c *Client) DedupeFetches() int64 {
	var n int64
	for _, tc := range c.conns {
		n += tc.DedupeFetches()
	}
	return n
}

// DedupeBytesSaved reports payload bytes the dedupe path kept off the
// wire across the pool — chunk bytes served from the local cache during
// dedupe fetches.
func (c *Client) DedupeBytesSaved() int64 {
	var n int64
	for _, tc := range c.conns {
		n += tc.DedupeBytesSaved()
	}
	return n
}

// BytesSent reports accumulated request traffic across the pool, for
// transport-cost accounting.
func (c *Client) BytesSent() int64 {
	var n int64
	for _, tc := range c.conns {
		n += tc.BytesSent()
	}
	return n
}

// BytesReceived reports accumulated response traffic across the pool.
func (c *Client) BytesReceived() int64 {
	var n int64
	for _, tc := range c.conns {
		n += tc.BytesReceived()
	}
	return n
}

// wireConfig collects the per-call wire options.
type wireConfig struct {
	inline bool
}

// WireOption configures document transfers (Client.Document, Client.Put).
type WireOption func(*wireConfig)

// WithInline asks the server to inline data payloads into the tree, so the
// transfer is self-contained (no shared storage server). Fetch-only.
func WithInline() WireOption {
	return func(c *wireConfig) { c.inline = true }
}

func wireConfigOf(opts []WireOption) wireConfig {
	var cfg wireConfig
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// Document fetches the document registered under name, in the binary
// encoding the server keeps for it. A missing name matches both
// ErrRemote and ErrNotFound under errors.Is.
func (c *Client) Document(ctx context.Context, name string, opts ...WireOption) (*Document, error) {
	cfg := wireConfigOf(opts)
	d, err := c.pick().GetDoc(ctx, name, transport.GetDocOptions{Inline: cfg.inline})
	if err != nil {
		return nil, wireError(err)
	}
	return wrapDocument(d), nil
}

// OpenDoc fetches the document registered under name — the Fetcher
// surface of Document.
func (c *Client) OpenDoc(ctx context.Context, name string) (*Document, error) {
	return c.Document(ctx, name)
}

// Put registers a document under name on the server, shipped in the
// binary encoding. Inlined payloads are absorbed into the server's
// store.
func (c *Client) Put(ctx context.Context, name string, d *Document, opts ...WireOption) error {
	return wireError(c.pick().PutDoc(ctx, name, d.doc, transport.EncodingBinary))
}

// Block fetches a data block by name or content address. A missing block
// matches both ErrRemote and ErrNotFound under errors.Is. A block too
// large for a single response frame arrives transparently as a chunked
// stream.
func (c *Client) Block(ctx context.Context, name string) (*Block, error) {
	b, err := c.pick().GetBlock(ctx, name)
	if err != nil {
		return nil, wireError(err)
	}
	return b, nil
}

// Blocks fetches many blocks in batched round trips: up to 64 names per
// request frame instead of one round trip per block. The result aligns
// with names; a name the server cannot resolve yields a nil entry (partial
// results are not an error). A cache attached at Dial time serves hits
// locally and absorbs the fetched blocks; a chunk cache (WithChunkCache)
// assembles large blocks from the chunks it already holds.
func (c *Client) Blocks(ctx context.Context, names []string) ([]*Block, error) {
	blocks, err := c.pick().GetBlocks(ctx, names)
	if err != nil {
		return nil, wireError(err)
	}
	return blocks, nil
}

// Descriptors fetches only the attribute lists of the named blocks,
// batched, without moving payloads — the paper's cheap queries over
// "relatively small clusters of data (the attributes)". Unresolvable
// names are absent from the result map.
func (c *Client) Descriptors(ctx context.Context, names []string) (map[string]AttrList, error) {
	descs, err := c.pick().GetDescriptors(ctx, names)
	if err != nil {
		return nil, wireError(err)
	}
	return descs, nil
}

// Prefetch resolves every external file the document references and
// fetches the blocks in batched round trips, returning a local store ready
// to back a Pipeline run (WithStore). Blocks the server does not hold are
// simply absent from the store — constraint filtering reports them as
// missing data — so a partial corpus is not an error. With a cache
// attached, repeated prefetches of overlapping presentations hit the
// network once per block.
func (c *Client) Prefetch(ctx context.Context, d *Document) (*Store, error) {
	return PrefetchVia(ctx, c, d)
}

// CacheStats snapshots the attached cache's counters; ok is false when the
// client was dialled without a cache.
func (c *Client) CacheStats() (stats CacheStats, ok bool) {
	if len(c.conns) == 0 || c.conns[0].Cache == nil {
		return CacheStats{}, false
	}
	return c.conns[0].Cache.Stats(), true
}

// PutBlock stores a block on the server, returning its content address.
func (c *Client) PutBlock(ctx context.Context, b *Block) (string, error) {
	id, err := c.pick().PutBlock(ctx, b)
	if err != nil {
		return "", wireError(err)
	}
	return id, nil
}

// List returns the names of documents the server offers, sorted.
func (c *Client) List(ctx context.Context) ([]string, error) {
	names, err := c.pick().ListDocs(ctx)
	if err != nil {
		return nil, wireError(err)
	}
	return names, nil
}
