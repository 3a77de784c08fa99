package media

// Content-defined dedupe index. A payload at or above ChunkThreshold is
// cut with the gear chunker (internal/chunker) and each chunk indexed by
// its raw SHA-256 — but only once someone asks: the index is derived
// state, built per block on the first Manifest request and never on a
// write or reply path. Two readers ask: a durable snapshot, which writes
// each unique chunk once and records chunked blocks as manifests
// (internal/durable), and DedupeStats. A store neither reaches (a
// reader's prefetch store, filter.Apply's output, a replay before its
// first snapshot) never cuts or hashes a byte. Near-duplicate blocks —
// multilingual variants, edited re-encodes — share most chunks, so a
// dup-heavy corpus snapshots near its unique size. (The edge disk cache
// cuts its own chunk files with the same chunker.)
//
// Blocks keep their full contiguous payloads for serving speed — the
// index holds subslices into the first containing block's payload, so
// indexing a duplicate costs hashing, not storage. Entries are
// refcounted: Delete decrements every chunk the block's manifest
// referenced and drops entries that reach zero (the GC for dedupe
// state). chunker.Sum here names chunks; it verifies nothing, which is
// why it alone of the store's hashing can wait for a reader.

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

// manifest is one block's ordered chunk hashes. Whoever creates the slot
// cuts the block; built closes once hashes is final, so a concurrent
// asker waits instead of cutting again or seeing a half-built list.
type manifest struct {
	built  chan struct{}
	hashes []ChunkHash
}

// manifestShard maps block id -> manifest, for the blocks cut so far.
type manifestShard struct {
	mu   sync.RWMutex
	byID map[string]*manifest
}

func (s *Store) chunkShardOf(h ChunkHash) *chunkShard {
	return &s.chunks[h[0]&(storeShards-1)]
}

// Manifest returns the ordered chunk hashes of a stored block, or false
// when the block is absent or too small to be chunk-indexed. The first
// request for a block cuts its payload and registers the chunks, taking
// references (chunk data subslices the payload); concurrent first askers
// share that one cut, and every later request is a map lookup. The slice
// is the store's own; callers must not modify it.
func (s *Store) Manifest(id string) ([]ChunkHash, bool) {
	ms := &s.manifests[shardOf(id)]
	ms.mu.RLock()
	m, ok := ms.byID[id]
	ms.mu.RUnlock()
	if ok {
		return m.wait(), true
	}
	b, ok := s.Get(id)
	if !ok || len(b.Payload) < ChunkThreshold {
		return nil, false
	}
	ms.mu.Lock()
	if m, ok = ms.byID[id]; ok {
		ms.mu.Unlock()
		return m.wait(), true // another first asker won the slot and is cutting
	}
	m = &manifest{built: make(chan struct{})}
	ms.byID[id] = m
	ms.mu.Unlock()

	// Cut outside every lock: hashing the payload is the dominant cost.
	m.hashes = s.cutChunks(b.Payload)
	close(m.built)
	// A Delete racing the cut is resolved like Put's name rollback:
	// whichever of this re-check and the delete runs last unindexes.
	if _, alive := s.Get(id); !alive {
		s.dropManifest(id)
		return nil, false
	}
	return m.hashes, true
}

// wait returns the hashes once the cut that fills them has finished.
func (m *manifest) wait() []ChunkHash {
	<-m.built
	return m.hashes
}

// cutChunks cuts payload and registers its chunks, taking one reference
// per occurrence, and returns their hashes in payload order.
func (s *Store) cutChunks(payload []byte) []ChunkHash {
	pieces := chunker.Split(payload, chunker.Config{})
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
	return hashes
}

// dropManifest releases a deleted block's chunk references, dropping
// entries that reach refcount zero. Idempotent: the second caller finds
// no manifest and does nothing. A manifest still being cut is waited
// for, so the references released are exactly the ones it took.
func (s *Store) dropManifest(id string) {
	ms := &s.manifests[shardOf(id)]
	ms.mu.Lock()
	m, ok := ms.byID[id]
	delete(ms.byID, id)
	ms.mu.Unlock()
	if !ok {
		return
	}
	for _, h := range m.wait() {
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
// It describes the whole store, so it first asks for the manifest of
// every block not yet cut.
func (s *Store) DedupeStats() DedupeStats {
	s.Each(func(b *Block) bool {
		s.Manifest(b.ID)
		return true
	})
	var st DedupeStats
	for i := range s.manifests {
		ms := &s.manifests[i]
		ms.mu.RLock()
		for _, m := range ms.byID {
			select {
			case <-m.built:
			default:
				continue // a block put since the pass above, mid-cut
			}
			st.ChunkedBlocks++
			for _, h := range m.hashes {
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
