package edge

import (
	"context"
	"sync"

	"repro/internal/lru"
	"repro/internal/media"
	"repro/internal/metrics"
)

// blockCache is the edge's memory tier: an LRU cache of data blocks keyed
// by the string they were requested under (name or content address). It
// implements the locally-served pattern of Gray's "Locally Served Network
// Computers": hot blocks are answered from local memory, and concurrent
// misses for the same key are collapsed into a single fetch
// (singleflight), so a burst of players starting the same presentation
// costs one disk read or upstream round trip per block.
//
// Blocks are immutable (media.Block), so the cache stores the pointer it
// is given and every hit — and every follower of one flight — receives
// that same pointer; nothing is copied in or out.
type blockCache struct {
	mu      sync.Mutex
	blocks  *lru.Cache[string, *media.Block] // budget counts blocks
	flights map[string]*flight

	// A hit is any lookup that costs no fetch of its own — including
	// waiting on another goroutine's flight — and a collapsed miss counts
	// once, charged to the leader that runs the fetch.
	hits, misses, evictions *metrics.Counter
}

// flight is one in-progress fetch other goroutines can wait on.
type flight struct {
	done chan struct{}
	blk  *media.Block
	err  error
}

// newBlockCache returns a cache holding up to size blocks, counting its
// effectiveness in reg as cmif_cache_hits_total, cmif_cache_misses_total
// and cmif_cache_evictions_total.
func newBlockCache(size int, reg *metrics.Registry) *blockCache {
	c := &blockCache{
		flights:   make(map[string]*flight),
		hits:      reg.Counter("cmif_cache_hits_total", "block-cache lookups served without a wire call"),
		misses:    reg.Counter("cmif_cache_misses_total", "block-cache lookups that led a wire fetch (collapsed misses count once)"),
		evictions: reg.Counter("cmif_cache_evictions_total", "blocks evicted by LRU pressure"),
	}
	c.blocks = lru.New(int64(size), func(*media.Block) int64 { return 1 },
		func(string, *media.Block) { c.evictions.Inc() })
	return c
}

// get returns the cached block under key, marking it recently used and
// counting a hit.
func (c *blockCache) get(key string) (*media.Block, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	blk, ok := c.blocks.Get(key)
	if ok {
		c.hits.Inc()
	}
	return blk, ok
}

// getOrFetch returns the block under key, fetching it with fetch on a
// miss. Concurrent callers missing on the same key share one fetch: the
// first becomes the leader and runs fetch, the rest wait for its result
// (or their own context's cancellation). Fetch errors are not cached.
func (c *blockCache) getOrFetch(ctx context.Context, key string, fetch func(context.Context) (*media.Block, error)) (*media.Block, error) {
	c.mu.Lock()
	if blk, ok := c.blocks.Get(key); ok {
		c.hits.Inc()
		c.mu.Unlock()
		return blk, nil
	}
	if f, ok := c.flights[key]; ok {
		c.hits.Inc()
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.blk, f.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.misses.Inc()
	c.mu.Unlock()

	f.blk, f.err = fetch(ctx)
	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil && f.blk != nil {
		c.blocks.Add(key, f.blk)
	}
	c.mu.Unlock()
	close(f.done)
	return f.blk, f.err
}
