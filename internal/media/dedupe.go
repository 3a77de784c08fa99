package media

// Content-defined dedupe figures. A payload at or above ChunkThreshold
// is cut with the gear chunker (internal/chunker) into chunks named by
// their raw SHA-256. Near-duplicate blocks — multilingual variants,
// edited re-encodes — share most chunks, so a dup-heavy corpus stores
// near its unique size wherever blocks are kept as chunks: in durable
// snapshots (internal/durable, which remembers each block's cuts across
// snapshots) and in the edge disk cache. The store itself keeps whole
// payloads for serving speed and holds no chunk index; DedupeStats cuts
// the corpus when asked.

import "repro/internal/chunker"

// ChunkThreshold is the smallest payload kept as chunks. Below it a
// manifest would cost more than the payload; such blocks always move
// and persist whole.
const ChunkThreshold = 4 << 10

// ChunkHash is a chunk's content address (raw SHA-256 of its bytes).
type ChunkHash = [chunker.HashSize]byte

// DedupeStats summarizes how the stored corpus chunks.
type DedupeStats struct {
	// ChunkedBlocks is how many stored blocks reach ChunkThreshold.
	ChunkedBlocks int
	// Chunks is the number of unique chunks among them.
	Chunks int
	// LogicalBytes is the sum of chunked payload sizes (what the corpus
	// claims to hold); UniqueBytes is what the unique chunks actually
	// occupy. LogicalBytes/UniqueBytes is the dedupe factor.
	LogicalBytes int64
	UniqueBytes  int64
}

// DedupeStats reports how much of the corpus content-defined chunking
// collapses. It cuts every chunkable block into a set local to the call,
// so it hashes the chunked corpus each time and changes nothing.
func (s *Store) DedupeStats() DedupeStats {
	var st DedupeStats
	seen := make(map[ChunkHash]bool)
	s.Each(func(b *Block) bool {
		if len(b.Payload) < ChunkThreshold {
			return true
		}
		st.ChunkedBlocks++
		st.LogicalBytes += int64(len(b.Payload))
		for _, c := range chunker.Cuts(b.Payload) {
			if !seen[c.Hash] {
				seen[c.Hash] = true
				st.Chunks++
				st.UniqueBytes += int64(c.Len)
			}
		}
		return true
	})
	return st
}
