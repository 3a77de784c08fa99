package media

// Content-defined dedupe index. Every payload at or above ChunkThreshold
// is cut with the gear chunker (internal/chunker) as it enters the
// store, and each chunk is indexed by its raw SHA-256. Near-duplicate
// blocks — multilingual variants, edited re-encodes — share most chunks,
// and every representation that moves or persists bytes asks this index
// first:
//
//   - the wire (protocol v4): GetBlkManifest + GetChunks let a client
//     with a warm chunk cache skip the bytes it already holds;
//   - durable snapshots: each unique chunk is written once, chunked
//     blocks record manifests (internal/durable);
//   - the edge disk cache stores chunk files shared across blocks.
//
// Blocks keep their full contiguous payloads for serving speed — the
// index holds subslices into the first containing block's payload, so
// indexing a duplicate costs hashing, not storage. Entries are
// refcounted: Delete decrements every chunk the block referenced and
// drops entries that reach zero (the GC for dedupe state).

import (
	"sync"

	"repro/internal/chunker"
)

// ChunkThreshold is the smallest payload the store chunk-indexes.
// Below it a manifest would cost more than the payload; such blocks
// always move whole.
const ChunkThreshold = 4 << 10

// ChunkHash is a chunk's content address (raw SHA-256 of its bytes).
type ChunkHash = [chunker.HashSize]byte

// chunkEntry is one unique chunk: its bytes (a subslice into some
// stored block's payload) and how many stored blocks reference it.
type chunkEntry struct {
	data []byte
	refs int
}

// chunkShard stripes the chunk index the same way blocks stripe.
type chunkShard struct {
	mu     sync.RWMutex
	byHash map[ChunkHash]*chunkEntry
}

// manifestShard maps block id -> ordered chunk hashes.
type manifestShard struct {
	mu   sync.RWMutex
	byID map[string][]ChunkHash
}

func (s *Store) chunkShardOf(h ChunkHash) *chunkShard {
	return &s.chunks[h[0]&(storeShards-1)]
}

// indexChunks cuts a stored block's payload and registers its chunks,
// taking references; chunk data subslices the payload. Idempotent per
// block id via the manifest table.
func (s *Store) indexChunks(stored *Block) {
	if len(stored.Payload) < ChunkThreshold {
		return
	}
	ms := &s.manifests[shardOf(stored.ID)]
	ms.mu.Lock()
	if _, done := ms.byID[stored.ID]; done {
		ms.mu.Unlock()
		return
	}
	// Reserve the slot so a concurrent indexer of the same id backs off;
	// filled in below once the chunks are hashed.
	ms.byID[stored.ID] = nil
	ms.mu.Unlock()

	pieces := chunker.Split(stored.Payload, chunker.Config{})
	hashes := make([]ChunkHash, len(pieces))
	var shared int64
	for i, c := range pieces {
		h := chunker.Sum(c)
		hashes[i] = h
		cs := s.chunkShardOf(h)
		cs.mu.Lock()
		if e, ok := cs.byHash[h]; ok {
			e.refs++
			shared += int64(len(c))
		} else {
			cs.byHash[h] = &chunkEntry{data: c, refs: 1}
		}
		cs.mu.Unlock()
	}
	if shared > 0 && s.dedupeObserver != nil {
		s.dedupeObserver(shared)
	}

	ms.mu.Lock()
	ms.byID[stored.ID] = hashes
	ms.mu.Unlock()
}

// unindexChunks releases a deleted block's chunk references, dropping
// entries that reach refcount zero. Idempotent: the second caller finds
// no manifest and does nothing.
func (s *Store) unindexChunks(id string) {
	ms := &s.manifests[shardOf(id)]
	ms.mu.Lock()
	hashes, ok := ms.byID[id]
	delete(ms.byID, id)
	ms.mu.Unlock()
	if !ok {
		return
	}
	for _, h := range hashes {
		cs := s.chunkShardOf(h)
		cs.mu.Lock()
		if e, ok := cs.byHash[h]; ok {
			e.refs--
			if e.refs <= 0 {
				delete(cs.byHash, h)
			}
		}
		cs.mu.Unlock()
	}
}

// Manifest returns the ordered chunk hashes of a stored block, or false
// when the block is absent or too small to be chunk-indexed. The slice
// is the store's own; callers must not modify it.
func (s *Store) Manifest(id string) ([]ChunkHash, bool) {
	ms := &s.manifests[shardOf(id)]
	ms.mu.RLock()
	hashes, ok := ms.byID[id]
	ms.mu.RUnlock()
	if !ok || hashes == nil {
		return nil, false
	}
	return hashes, true
}

// GetChunk returns a chunk's bytes by content address. The slice
// aliases a stored block's payload; callers must treat it as read-only
// and not hold it past the enclosing request.
func (s *Store) GetChunk(h ChunkHash) ([]byte, bool) {
	cs := s.chunkShardOf(h)
	cs.mu.RLock()
	e, ok := cs.byHash[h]
	cs.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return e.data, true
}

// DedupeStats summarizes the chunk index.
type DedupeStats struct {
	// ChunkedBlocks is how many stored blocks have manifests.
	ChunkedBlocks int
	// Chunks is the number of unique chunks indexed.
	Chunks int
	// LogicalBytes is the sum of chunked payload sizes (what the corpus
	// claims to hold); UniqueBytes is what the unique chunks actually
	// occupy. LogicalBytes/UniqueBytes is the dedupe factor.
	LogicalBytes int64
	UniqueBytes  int64
}

// DedupeStats reports how much of the corpus the chunk index collapses.
func (s *Store) DedupeStats() DedupeStats {
	var st DedupeStats
	for i := range s.manifests {
		ms := &s.manifests[i]
		ms.mu.RLock()
		for _, hashes := range ms.byID {
			if hashes == nil {
				continue
			}
			st.ChunkedBlocks++
			for _, h := range hashes {
				if c, ok := s.GetChunk(h); ok {
					st.LogicalBytes += int64(len(c))
				}
			}
		}
		ms.mu.RUnlock()
	}
	for i := range s.chunks {
		cs := &s.chunks[i]
		cs.mu.RLock()
		st.Chunks += len(cs.byHash)
		for _, e := range cs.byHash {
			st.UniqueBytes += int64(len(e.data))
		}
		cs.mu.RUnlock()
	}
	return st
}
