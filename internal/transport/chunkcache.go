package transport

import (
	"sync"

	"repro/internal/lru"
	"repro/internal/media"
)

// DefaultChunkCacheBytes is the byte budget a ChunkCache gets when built
// with a non-positive budget.
const DefaultChunkCacheBytes = 64 << 20

// ChunkCache is a client-side LRU cache of content-defined chunks keyed
// by their content address, bounded by a byte budget rather than an
// entry count (chunk sizes vary by an order of magnitude). It backs the
// protocol-v4 dedupe fetch path: a client holding most of a block's
// chunks fetches only the manifest plus the missing chunks, so a warm
// near-duplicate re-fetch moves kilobytes instead of megabytes.
//
// Chunks are content-addressed, so entries never go stale — a cached
// chunk is valid forever, whatever block it next appears in. Safe for
// concurrent use and meant to be shared between clients.
type ChunkCache struct {
	mu     sync.Mutex
	chunks *lru.Cache[media.ChunkHash, []byte] // budget counts bytes

	// verified memoizes (content address, manifest) pairs whose
	// reassembly has already been checked against the full payload hash,
	// so repeat warm assemblies skip the redundant whole-payload digest:
	// every byte is still verified chunk-by-chunk against the manifest,
	// and the manifest-to-address binding was proven on first assembly.
	verified map[[32]byte]struct{}

	hits, misses, bytesServed int64
}

// manifestMemoCap bounds the verified-manifest memo; past it the memo is
// dropped wholesale (re-verification costs one payload hash per block,
// so the reset only costs time, never correctness).
const manifestMemoCap = 4096

// NewChunkCache returns a cache holding up to budget bytes of chunk
// data; a non-positive budget gets DefaultChunkCacheBytes.
func NewChunkCache(budget int64) *ChunkCache {
	if budget <= 0 {
		budget = DefaultChunkCacheBytes
	}
	return &ChunkCache{chunks: lru.New[media.ChunkHash](budget,
		func(data []byte) int64 { return int64(len(data)) }, nil)}
}

// Get returns the cached chunk under h, marking it recently used. The
// returned slice is the cache's own copy and read-only (the assembly
// path copies it into the payload it is building).
func (c *ChunkCache) Get(h media.ChunkHash) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	data, ok := c.chunks.Get(h)
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.bytesServed += int64(len(data))
	return data, true
}

// Add stores a copy of data under h, evicting least recently used
// chunks until the budget holds. A chunk larger than the whole budget
// is not cached. The copy is deliberate: callers pass subslices of a
// whole payload or a response part, and a cached chunk that pinned its
// parent would hold megabytes the byte budget never counted.
func (c *ChunkCache) Add(h media.ChunkHash, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Content-addressed: same hash, same bytes. Just refresh recency.
	if _, ok := c.chunks.Get(h); !ok {
		c.chunks.Add(h, append([]byte(nil), data...))
	}
}

// ManifestVerified reports whether an assembly under this verification
// key has already been checked against the full payload hash.
func (c *ChunkCache) ManifestVerified(key [32]byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.verified[key]
	return ok
}

// MarkManifestVerified records that an assembly under this verification
// key checked out against the full payload hash.
func (c *ChunkCache) MarkManifestVerified(key [32]byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.verified == nil || len(c.verified) >= manifestMemoCap {
		c.verified = make(map[[32]byte]struct{})
	}
	c.verified[key] = struct{}{}
}

// ChunkCacheStats is a point-in-time snapshot of cache effectiveness.
// BytesServed is the total chunk bytes answered from the cache — the
// payload bytes the dedupe path kept off the wire.
type ChunkCacheStats struct {
	Chunks      int
	Bytes       int64
	Budget      int64
	Hits        int64
	Misses      int64
	Evictions   int64
	BytesServed int64
}

// Stats snapshots the counters.
func (c *ChunkCache) Stats() ChunkCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ChunkCacheStats{
		Chunks:      c.chunks.Len(),
		Bytes:       c.chunks.Used(),
		Budget:      c.chunks.Budget(),
		Hits:        c.hits,
		Misses:      c.misses,
		Evictions:   c.chunks.Evictions(),
		BytesServed: c.bytesServed,
	}
}
