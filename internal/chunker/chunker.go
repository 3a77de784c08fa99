// Package chunker implements content-defined chunking with a gear
// rolling hash. Payloads are cut at positions the *content* chooses, so
// two near-duplicate payloads — a multilingual variant, an edited
// re-encode — share most of their chunks byte-for-byte and dedupe by
// chunk content address in the block store, the edge disk cache and WAL
// snapshots.
//
// The gear hash is h = (h << 1) + gear[b]: each byte's influence shifts
// out after 64 positions, so a cut decision at position p depends only
// on bytes (p-63..p]. Editing one byte therefore changes the chunk set
// only locally — every boundary more than 63 bytes before the edit is
// provably unchanged, and boundaries after the edit resynchronize at
// the next content-chosen cut (FuzzChunker pins the prefix property).
package chunker

import (
	"crypto/sha256"
)

// Default chunk-size parameters: 2 KiB floor, 8 KiB average, 64 KiB
// ceiling. The floor keeps per-chunk bookkeeping amortized, the ceiling
// bounds the damage a cut-free stretch (constant bytes) can do to
// dedupe granularity.
const (
	DefaultMin = 2 << 10
	DefaultAvg = 8 << 10
	DefaultMax = 64 << 10
)

// Config sizes the chunker. Avg must be a power of two; Min < Avg < Max.
// The zero Config means the defaults.
type Config struct {
	Min, Avg, Max int
}

// normalize fills zero fields with the defaults and clamps nonsense.
func (c Config) normalize() Config {
	if c.Min <= 0 {
		c.Min = DefaultMin
	}
	if c.Avg <= 0 {
		c.Avg = DefaultAvg
	}
	// Round Avg up to a power of two so the boundary test is a mask.
	for c.Avg&(c.Avg-1) != 0 {
		c.Avg++
	}
	if c.Max <= 0 {
		c.Max = DefaultMax
	}
	if c.Min >= c.Avg {
		c.Min = c.Avg / 2
	}
	if c.Max <= c.Avg {
		c.Max = c.Avg * 2
	}
	return c
}

// gearTable is the byte → random-64-bit mapping the rolling hash mixes.
// Deterministic (splitmix64 from a fixed seed): every build and
// platform cuts identical chunks, which the cross-version dedupe paths
// (snapshots, disk caches) depend on.
var gearTable = buildGearTable()

func buildGearTable() [256]uint64 {
	var t [256]uint64
	s := uint64(0x57ab0a5ed60bcdbb) // fixed seed; never change it
	for i := range t {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		t[i] = z ^ (z >> 31)
	}
	return t
}

// Split cuts data into content-defined chunks, returned as subslices of
// data (no copies; the caller owns aliasing decisions). Concatenating
// the chunks yields data exactly. Every chunk is at most cfg.Max bytes;
// every chunk but the last is at least cfg.Min. Empty data yields nil.
func Split(data []byte, cfg Config) [][]byte {
	cfg = cfg.normalize()
	if len(data) == 0 {
		return nil
	}
	mask := uint64(cfg.Avg - 1)
	chunks := make([][]byte, 0, len(data)/cfg.Avg+1)
	for start := 0; start < len(data); {
		n := chunkLen(data[start:], cfg.Min, cfg.Max, mask)
		chunks = append(chunks, data[start:start+n])
		start += n
	}
	return chunks
}

// chunkLen returns the length of the chunk data starts with: the first
// length of at least lo whose last byte brings the gear hash to a
// boundary (h&mask == 0), else hi, else all of data. The hash at a byte
// depends only on the 64 bytes ending there — each byte's term shifts
// out after 64 steps — so hashing starts 64 bytes before the first byte
// a cut may follow, not at the chunk's start.
func chunkLen(data []byte, lo, hi int, mask uint64) int {
	if len(data) <= lo {
		return len(data)
	}
	if len(data) > hi {
		data = data[:hi]
	}
	var h uint64
	i := max(0, lo-64)
	for ; i < lo-1; i++ {
		h = (h << 1) + gearTable[data[i]]
	}
	for ; i < len(data); i++ {
		h = (h << 1) + gearTable[data[i]]
		if h&mask == 0 {
			return i + 1
		}
	}
	return len(data)
}

// Sum returns a chunk's content address: its raw SHA-256. Chunks are
// addressed by payload alone (no medium tag — unlike block IDs), so the
// same bytes dedupe across media.
func Sum(chunk []byte) [sha256.Size]byte {
	return sha256.Sum256(chunk)
}

// HashSize is the byte length of a chunk content address on the wire
// and in snapshot records.
const HashSize = sha256.Size

// Cut is one chunk of a payload, by content address and length. A
// payload's cuts lie end to end: chunk i is the Len bytes after the
// earlier chunks' lengths.
type Cut struct {
	Hash [HashSize]byte
	Len  int
}

// Cuts splits data with the default Config and returns each chunk's
// content address and length in payload order — the form every dedupe
// path keeps, so none holds a subslice of data past the call.
func Cuts(data []byte) []Cut {
	chunks := Split(data, Config{})
	cuts := make([]Cut, len(chunks))
	for i, c := range chunks {
		cuts[i] = Cut{Hash: Sum(c), Len: len(c)}
	}
	return cuts
}
