package transport

import (
	"context"
	"sync"

	"repro/internal/lru"
	"repro/internal/media"
	"repro/internal/metrics"
)

// DefaultCacheSize is the block capacity a BlockCache gets when built with
// a non-positive size.
const DefaultCacheSize = 256

// BlockCache is a client-side LRU cache of data blocks keyed by the string
// they were requested under (name or content address). It implements the
// locally-served pattern of Gray's "Locally Served Network Computers": hot
// blocks are answered from local memory, and concurrent misses for the same
// key are collapsed into a single wire fetch (singleflight), so a burst of
// players starting the same presentation costs one round trip per block.
//
// Blocks are immutable (media.Block), so the cache stores the pointer it
// is given and every hit — and every follower of one flight — receives
// that same pointer; nothing is copied in or out.
//
// A cache is safe for concurrent use and is meant to be shared between
// clients: each Client stays single-goroutine, while the cache coordinates
// across them.
type BlockCache struct {
	mu      sync.Mutex
	blocks  *lru.Cache[string, *media.Block] // budget counts blocks
	flights map[string]*flight

	hits, misses int64

	// Mirrored instruments (Instrument); nil when uninstrumented. They
	// increment at exactly the sites the fields above do, so the metrics
	// and CacheStats always agree on semantics.
	mHits      *metrics.Counter
	mMisses    *metrics.Counter
	mEvictions *metrics.Counter
}

// Instrument mirrors the cache's effectiveness counters into reg as
// cmif_cache_hits_total / cmif_cache_misses_total /
// cmif_cache_evictions_total, with the exact accounting semantics of
// CacheStats: a hit is any lookup that costs no wire call of its own —
// including waiting on another goroutine's in-flight fetch — and a
// singleflight-collapsed miss counts once, charged to the leader that
// performs the wire fetch. Instrument at construction time; the mirrored
// counters start at zero, so a cache instrumented mid-life disagrees with
// CacheStats by whatever happened before.
func (c *BlockCache) Instrument(reg *metrics.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mHits = reg.Counter("cmif_cache_hits_total", "block-cache lookups served without a wire call")
	c.mMisses = reg.Counter("cmif_cache_misses_total", "block-cache lookups that led a wire fetch (collapsed misses count once)")
	c.mEvictions = reg.Counter("cmif_cache_evictions_total", "blocks evicted by LRU pressure")
}

// countHit and countMiss move the CacheStats field and its mirrored
// instrument together. Caller holds c.mu.
func (c *BlockCache) countHit() {
	c.hits++
	if c.mHits != nil {
		c.mHits.Inc()
	}
}

func (c *BlockCache) countMiss() {
	c.misses++
	if c.mMisses != nil {
		c.mMisses.Inc()
	}
}

// flight is one in-progress fetch other goroutines can wait on.
type flight struct {
	done chan struct{}
	blk  *media.Block
	err  error
}

// NewBlockCache returns a cache holding up to size blocks; a non-positive
// size gets DefaultCacheSize.
func NewBlockCache(size int) *BlockCache {
	if size <= 0 {
		size = DefaultCacheSize
	}
	c := &BlockCache{flights: make(map[string]*flight)}
	c.blocks = lru.New(int64(size), func(*media.Block) int64 { return 1 },
		func(string, *media.Block) {
			if c.mEvictions != nil {
				c.mEvictions.Inc()
			}
		})
	return c
}

// Get returns the cached block under key, marking it recently used and
// counting a hit.
func (c *BlockCache) Get(key string) (*media.Block, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	blk, ok := c.blocks.Get(key)
	if ok {
		c.countHit()
	}
	return blk, ok
}

// Add stores blk under key, evicting the least recently used entry when
// the cache is full.
func (c *BlockCache) Add(key string, blk *media.Block) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.blocks.Add(key, blk)
}

// join is the singleflight entry point shared by GetOrFetch and the
// client's batched fetch plan. It returns exactly one of:
//
//   - a resident block (a hit; blk non-nil),
//   - an existing flight to wait on (another goroutine is fetching; also
//     counted as a hit, since this caller costs no wire call of its own),
//   - a fresh flight with leader=true: the caller must fetch and settle it.
func (c *BlockCache) join(key string) (blk *media.Block, f *flight, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if blk, ok := c.blocks.Get(key); ok {
		c.countHit()
		return blk, nil, false
	}
	if f, ok := c.flights[key]; ok {
		c.countHit()
		return nil, f, false
	}
	f = &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.countMiss()
	return nil, f, true
}

// settle resolves a leader's flight with the fetch result, caching the
// block on success and waking every waiter. Errors are never cached.
func (c *BlockCache) settle(key string, f *flight, blk *media.Block, err error) {
	c.mu.Lock()
	delete(c.flights, key)
	if err == nil && blk != nil {
		c.blocks.Add(key, blk)
	}
	f.blk, f.err = blk, err
	close(f.done)
	c.mu.Unlock()
}

// wait blocks until f settles (or ctx ends) and returns its result.
func (f *flight) wait(ctx context.Context) (*media.Block, error) {
	select {
	case <-f.done:
		return f.blk, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// GetOrFetch returns the block under key, fetching it with fetch on a
// miss. Concurrent callers missing on the same key share one fetch —
// whether they arrive through here or through the batched GetBlocks path:
// the first becomes the leader and runs fetch, the rest wait for its
// result (or their own context's cancellation). Fetch errors are not
// cached.
func (c *BlockCache) GetOrFetch(ctx context.Context, key string, fetch func(context.Context) (*media.Block, error)) (*media.Block, error) {
	blk, f, leader := c.join(key)
	if blk != nil {
		return blk, nil
	}
	if !leader {
		return f.wait(ctx)
	}
	blk, err := fetch(ctx)
	c.settle(key, f, blk, err)
	return blk, err
}

// Len reports the number of resident blocks.
func (c *BlockCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.blocks.Len()
}

// CacheStats is a point-in-time snapshot of cache effectiveness. A "hit"
// is any lookup that cost no wire call of its own, including waiting on
// another goroutine's in-flight fetch.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Len       int
	Capacity  int
}

// Stats snapshots the counters.
func (c *BlockCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.blocks.Evictions(),
		Len:       c.blocks.Len(),
		Capacity:  int(c.blocks.Budget()),
	}
}
