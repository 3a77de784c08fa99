package edge

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/chunker"
	"repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/lru"
	"repro/internal/media"
)

// DefaultCacheBytes is the disk LRU's byte budget when the edge is not
// configured with one.
const DefaultCacheBytes = 256 << 20

// diskMagic heads every cached block file. The trailing version byte
// gates format evolution: an unknown version is treated as absent and
// deleted, never misread.
var diskMagic = []byte("CMEB1")

// diskMagicV2 heads chunk-manifest block files: the same four
// length-prefixed fields as CMEB1, but the fourth is a concatenation of
// chunk hashes instead of the payload; the chunk bytes live in shared,
// refcounted .cmc files. Near-duplicate blocks then cost one manifest
// plus their unique chunks on disk. CMEB1 files written by earlier
// builds keep reading forever.
var diskMagicV2 = []byte("CMEB2")

// blockExt, nameExt and chunkExt are the cache's file kinds:
// content-addressed block bodies (or manifests), name→address index
// entries, and shared content-defined chunks.
const (
	blockExt = ".cmb"
	nameExt  = ".cmn"
	chunkExt = ".cmc"
)

// DiskCache is the edge's second-level block cache: block bodies as
// content-addressed files, plus small index files mapping served names
// to content addresses, with byte-budget LRU eviction. Every write goes
// through internal/fsio's fsync-before-rename discipline, so a SIGKILL
// mid-write can lose the entry being written but can never leave a torn
// file that decodes — and every read is checked against the one digest
// that names it, the block's content address, so even a corrupted file
// degrades to a miss, not to wrong bytes. Safe for concurrent use.
type DiskCache struct {
	dir string

	mu sync.Mutex
	// index ranks the resident blocks, content ID → entry. Its byte
	// budget covers both file kinds: a block file is its entry's cost, a
	// shared chunk file is charged when its first reference arrives and
	// released with its last.
	index *lru.Cache[string, *diskEntry]
	names map[string]string // served name → content ID

	// chunkRefs refcounts the shared .cmc chunk files: one ref per
	// manifest occurrence across resident CMEB2 entries. A chunk file is
	// deleted when its last referencing block evicts.
	chunkRefs map[media.ChunkHash]*chunkRef

	hits, misses int64
}

// chunkRef is one shared chunk file's index record; a read expects size.
type chunkRef struct {
	size int64
	refs int
}

// diskEntry is one cached block's in-memory index record. chunks is nil
// for plain CMEB1 entries; for CMEB2 entries it is the manifest, in
// order, so eviction can release the references.
type diskEntry struct {
	size   int64
	chunks []media.ChunkHash
}

// DiskStats snapshots the disk cache's occupancy and effectiveness.
// Bytes is total disk usage (block files plus chunk files); Chunks and
// ChunkBytes describe the shared chunk tier inside that total.
type DiskStats struct {
	Blocks     int
	Bytes      int64
	Chunks     int
	ChunkBytes int64
	Hits       int64
	Misses     int64
	Evictions  int64
}

// OpenDiskCache opens (or creates) the cache rooted at dir with the
// given byte budget (<=0 means DefaultCacheBytes) and rebuilds the index
// from what survived the last process: block files are trusted by name
// (their content is verified on first read), the staging files of writes
// a kill interrupted are removed, name entries whose block is gone are
// dropped, and the LRU order is seeded from file modification times — an
// approximation that only matters until real accesses re-rank the
// survivors.
func OpenDiskCache(dir string, budget int64) (*DiskCache, error) {
	if budget <= 0 {
		budget = DefaultCacheBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("edge: open disk cache: %w", err)
	}
	c := &DiskCache{
		dir:       dir,
		names:     make(map[string]string),
		chunkRefs: make(map[media.ChunkHash]*chunkRef),
	}
	c.index = lru.New(budget, func(e *diskEntry) int64 { return e.size }, c.discard)
	dents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("edge: scan disk cache: %w", err)
	}
	type aged struct {
		id    string
		size  int64
		mtime int64
	}
	var blocks []aged
	chunkSizes := make(map[media.ChunkHash]int64)
	for _, de := range dents {
		name := de.Name()
		switch {
		case fsio.IsTemp(name):
			// An interrupted write; the rename never happened.
			_ = os.Remove(filepath.Join(dir, name))
		case strings.HasSuffix(name, blockExt):
			id := strings.TrimSuffix(name, blockExt)
			info, err := de.Info()
			if err != nil {
				continue
			}
			blocks = append(blocks, aged{id: id, size: info.Size(), mtime: info.ModTime().UnixNano()})
		case strings.HasSuffix(name, chunkExt):
			raw, err := hex.DecodeString(strings.TrimSuffix(name, chunkExt))
			if err != nil || len(raw) != len(media.ChunkHash{}) {
				_ = os.Remove(filepath.Join(dir, name))
				continue
			}
			info, err := de.Info()
			if err != nil {
				continue
			}
			var h media.ChunkHash
			copy(h[:], raw)
			chunkSizes[h] = info.Size()
		case strings.HasSuffix(name, nameExt):
			served, id, ok := readNameFile(filepath.Join(dir, name))
			if ok {
				c.names[served] = id
			} else {
				_ = os.Remove(filepath.Join(dir, name))
			}
		}
	}
	// Oldest first, so the LRU front ends up holding the most recently
	// touched survivors.
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].mtime < blocks[j].mtime })
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, b := range blocks {
		// CMEB2 manifests must be read now to rebuild the chunk
		// refcounts; they are tiny. CMEB1 bodies stay trusted by name
		// (content verified on first read), so open cost does not scale
		// with cached payload bytes.
		chunks, ok := c.scanBlockChunks(b.id)
		if !ok {
			_ = os.Remove(c.blockPath(b.id))
			continue
		}
		c.admitLocked(b.id, &diskEntry{size: b.size, chunks: chunks}, chunkSizes)
	}
	// Orphan chunks (their last referencing block was evicted or lost
	// mid-crash) are swept, and so are names whose block did not survive.
	for h := range chunkSizes {
		if c.chunkRefs[h] == nil {
			_ = os.Remove(c.chunkPath(h))
		}
	}
	for name, id := range c.names {
		if !c.index.Contains(id) {
			c.forgetNameLocked(name)
		}
	}
	return c, nil
}

// scanBlockChunks classifies one block file at open: nil chunks for a
// plain CMEB1 body, the manifest hashes for a CMEB2 manifest, ok=false
// for a file no reader of either format will accept.
func (c *DiskCache) scanBlockChunks(id string) ([]media.ChunkHash, bool) {
	f, err := os.Open(c.blockPath(id))
	if err != nil {
		return nil, false
	}
	defer f.Close()
	magic := make([]byte, len(diskMagic))
	if _, err := io.ReadFull(f, magic); err != nil {
		return nil, false
	}
	if string(magic) == string(diskMagic) {
		return nil, true
	}
	if string(magic) != string(diskMagicV2) {
		return nil, false
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, false
	}
	fields, err := splitFields(data, 4)
	if err != nil {
		return nil, false
	}
	return parseManifest(fields[3])
}

// parseManifest splits a manifest field into chunk hashes.
func parseManifest(manifest []byte) ([]media.ChunkHash, bool) {
	hashSize := len(media.ChunkHash{})
	if len(manifest) == 0 || len(manifest)%hashSize != 0 {
		return nil, false
	}
	hashes := make([]media.ChunkHash, len(manifest)/hashSize)
	for i := range hashes {
		copy(hashes[i][:], manifest[i*hashSize:])
	}
	return hashes, true
}

// Stats snapshots occupancy and effectiveness counters.
func (c *DiskCache) Stats() DiskStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var chunkBytes int64
	for _, cr := range c.chunkRefs {
		chunkBytes += cr.size
	}
	return DiskStats{
		Blocks:     c.index.Len(),
		Bytes:      c.index.Used(),
		Chunks:     len(c.chunkRefs),
		ChunkBytes: chunkBytes,
		Hits:       c.hits,
		Misses:     c.misses,
		Evictions:  c.index.Evictions(),
	}
}

// Get resolves key — a served name or a content address — against the
// cache. A hit re-ranks the entry most-recently-used; a file that fails
// to decode or whose payload no longer hashes to its address is removed
// and reported as a miss, and a name whose block has been evicted is
// forgotten here, on its next lookup.
func (c *DiskCache) Get(key string) (*media.Block, bool) {
	c.mu.Lock()
	id, named := c.names[key]
	if !named {
		id = key
	}
	if _, ok := c.index.Get(id); !ok {
		if named {
			c.forgetNameLocked(key)
		}
		c.misses++
		c.mu.Unlock()
		return nil, false
	}
	c.mu.Unlock()

	blk, err := c.readBlock(id)
	if err != nil {
		c.drop(id)
		c.mu.Lock()
		c.misses++
		c.mu.Unlock()
		return nil, false
	}
	c.mu.Lock()
	c.hits++
	c.mu.Unlock()
	return blk, true
}

// Put caches a fetched block under its content address and records the
// served-name alias when it differs. Both files land atomically; a
// failure to persist is silent (the cache is best-effort — the block
// was already served from memory), and a block whose descriptor does not
// encode stores nothing.
func (c *DiskCache) Put(servedName string, b *media.Block) {
	if b == nil || b.ID == "" {
		return
	}
	desc, err := b.DescriptorText()
	if err != nil {
		return
	}
	c.mu.Lock()
	exists := c.index.Contains(b.ID)
	c.mu.Unlock()

	var size int64
	var hashes []media.ChunkHash
	sizes := make(map[media.ChunkHash]int64)
	if !exists {
		var data []byte
		if len(b.Payload) >= media.ChunkThreshold {
			// Chunk-manifest form: shared .cmc files plus a tiny CMEB2
			// manifest. Chunks already on disk (another block's) are not
			// rewritten — that sharing is the dedupe. The chunk files are
			// named by the block's own cuts, made once per block.
			cuts := b.Cuts()
			hashes = make([]media.ChunkHash, len(cuts))
			manifest := make([]byte, 0, len(cuts)*chunker.HashSize)
			off := 0
			for i, cut := range cuts {
				h, p := cut.Hash, b.Payload[off:off+cut.Len]
				off += cut.Len
				hashes[i] = h
				manifest = append(manifest, h[:]...)
				if _, seen := sizes[h]; seen {
					continue
				}
				sizes[h] = int64(cut.Len)
				c.mu.Lock()
				have := c.chunkRefs[h] != nil
				c.mu.Unlock()
				if !have {
					if err := fsio.WriteFileNoDirSync(c.chunkPath(h), p, 0o644); err != nil {
						return
					}
				}
			}
			data = encodeBlockFile(diskMagicV2, b, desc, manifest)
		} else {
			data = encodeBlockFile(diskMagic, b, desc, b.Payload)
		}
		size = int64(len(data))
		if err := fsio.WriteFileNoDirSync(c.blockPath(b.ID), data, 0o644); err != nil {
			return
		}
	}
	if servedName != "" && servedName != b.ID {
		_ = fsio.WriteFileNoDirSync(c.namePath(servedName), encodeNameFile(servedName, b.ID), 0o644)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if servedName != "" && servedName != b.ID {
		c.names[servedName] = b.ID
	}
	e, ok := c.index.Get(b.ID)
	if ok && exists && len(e.chunks) > 0 && !b.CutsKept() {
		// Cached under another name already: the block takes its cuts
		// from the resident manifest, unhashed, so no response cuts it
		// again. A chunk no longer indexed sizes as 0, which SetCuts
		// refuses.
		cuts := make([]chunker.Cut, len(e.chunks))
		for i, h := range e.chunks {
			if cr := c.chunkRefs[h]; cr != nil {
				cuts[i] = chunker.Cut{Hash: h, Len: int(cr.size)}
			}
		}
		b.SetCuts(cuts)
	}
	if ok || exists {
		// Resident (the lookup re-ranked it) — or it was when the files
		// would have been written and an eviction has raced this Put
		// since, so they may be gone: the next Put re-caches cleanly.
		return
	}
	c.admitLocked(b.ID, &diskEntry{size: size, chunks: hashes}, sizes)
}

// admitLocked indexes one block whose files are on disk: a reference on
// every chunk of its manifest, then the bytes of the chunk files nobody
// referenced before (sized by sizes), then the entry itself. All the
// references are taken before anything is charged, because a charge may
// push older entries out through discard and the chunks they share with
// this block must already be pinned. Callers hold c.mu.
func (c *DiskCache) admitLocked(id string, e *diskEntry, sizes map[media.ChunkHash]int64) {
	var fresh int64
	for _, h := range e.chunks {
		cr := c.chunkRefs[h]
		if cr == nil {
			cr = &chunkRef{size: sizes[h]}
			c.chunkRefs[h] = cr
			fresh += cr.size
		}
		cr.refs++
	}
	c.index.Charge(fresh)
	if !c.index.Add(id, e) {
		c.discard(id, e)
	}
}

// discard is the index's evict hook: the block file goes, and with it
// one reference on each chunk of its manifest. Names pointing at the
// block resolve to a miss from here on and are forgotten on their next
// lookup (Get) or at the next open. Callers hold c.mu.
func (c *DiskCache) discard(id string, e *diskEntry) {
	_ = os.Remove(c.blockPath(id))
	c.releaseChunksLocked(e.chunks)
}

// forgetNameLocked drops a served name and its index file.
func (c *DiskCache) forgetNameLocked(name string) {
	delete(c.names, name)
	_ = os.Remove(c.namePath(name))
}

// releaseChunksLocked drops one reference per manifest occurrence,
// deleting chunk files that reach zero. Callers hold c.mu.
func (c *DiskCache) releaseChunksLocked(hashes []media.ChunkHash) {
	for _, h := range hashes {
		cr := c.chunkRefs[h]
		if cr == nil {
			continue
		}
		cr.refs--
		if cr.refs <= 0 {
			delete(c.chunkRefs, h)
			c.index.Charge(-cr.size)
			_ = os.Remove(c.chunkPath(h))
		}
	}
}

// drop removes one entry (a corrupt or unreadable file).
func (c *DiskCache) drop(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.index.Remove(id); ok {
		c.releaseChunksLocked(e.chunks)
	}
	_ = os.Remove(c.blockPath(id))
}

func (c *DiskCache) blockPath(id string) string {
	return filepath.Join(c.dir, id+blockExt)
}

// chunkPath addresses a shared chunk file by the hex of its hash.
func (c *DiskCache) chunkPath(h media.ChunkHash) string {
	return filepath.Join(c.dir, hex.EncodeToString(h[:])+chunkExt)
}

// namePath addresses a served name's index file. Names are arbitrary
// strings, so the filename is the hex of the name itself — reversible,
// collision-free and filesystem-safe.
func (c *DiskCache) namePath(name string) string {
	return filepath.Join(c.dir, hex.EncodeToString([]byte(name))+nameExt)
}

// appendFields appends each field behind its 4-byte big-endian length,
// the framing every cache file uses after its magic.
func appendFields(buf []byte, fields ...[]byte) []byte {
	for _, f := range fields {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(f)))
		buf = append(buf, f...)
	}
	return buf
}

// encodeBlockFile serializes a block for disk: magic, then
// length-prefixed name, medium, descriptor text and body. Under diskMagic
// the body is the payload; under diskMagicV2 it is the chunk manifest,
// and the chunk bytes live in the shared .cmc files it references. The
// content address is not stored — it is the filename, and is re-derived
// from the payload on read for verification.
func encodeBlockFile(magic []byte, b *media.Block, desc, body []byte) []byte {
	return appendFields(append([]byte(nil), magic...), []byte(b.Name),
		[]byte(b.Medium.String()), desc, body)
}

// splitFields splits n length-prefixed fields from a block file body
// (the bytes after the magic). Each field's capacity is clipped to its
// length, so a field kept past the parse carries no spare capacity.
func splitFields(rest []byte, n int) ([][]byte, error) {
	fields := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		if len(rest) < 4 {
			return nil, fmt.Errorf("truncated")
		}
		l := binary.BigEndian.Uint32(rest[:4])
		rest = rest[4:]
		if uint32(len(rest)) < l {
			return nil, fmt.Errorf("truncated field")
		}
		fields = append(fields, rest[:l:l])
		rest = rest[l:]
	}
	return fields, nil
}

// readBlock loads and verifies one cached block, either format: framing
// must parse, and the payload must hash back to the content address the
// file is named for. That one digest of (medium, payload) covers every
// byte served, so chunks are not hashed again: a damaged chunk, manifest
// or medium fails it. A manifest's chunks become the block's cuts
// (media.Block.SetCuts), so a response that spells the block from
// chunks another entry carried does not cut it again. Anything else is
// an error — the caller drops the entry (releasing its chunk
// references).
func (c *DiskCache) readBlock(wantID string) (*media.Block, error) {
	path := c.blockPath(wantID)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < len(diskMagic) {
		return nil, fmt.Errorf("edge: cache file %s: short magic", filepath.Base(path))
	}
	magic, rest := string(data[:len(diskMagic)]), data[len(diskMagic):]
	if magic != string(diskMagic) && magic != string(diskMagicV2) {
		return nil, fmt.Errorf("edge: cache file %s: bad magic", filepath.Base(path))
	}
	fields, err := splitFields(rest, 4)
	if err != nil {
		return nil, fmt.Errorf("edge: cache file %s: %w", filepath.Base(path), err)
	}
	var payload []byte
	var cuts []chunker.Cut
	if magic == string(diskMagicV2) {
		hashes, ok := parseManifest(fields[3])
		if !ok {
			return nil, fmt.Errorf("edge: cache file %s: bad manifest", filepath.Base(path))
		}
		// Size the payload from the index (an unindexed chunk sizes as 0)
		// and read each chunk file straight into its slot: one buffer at
		// the exact size, since the block is cached by pointer from here.
		sizes := make([]int, len(hashes))
		total := 0
		c.mu.Lock()
		for i, h := range hashes {
			if cr := c.chunkRefs[h]; cr != nil {
				sizes[i] = int(cr.size)
			}
			total += sizes[i]
		}
		c.mu.Unlock()
		payload = make([]byte, total)
		cuts = make([]chunker.Cut, len(hashes))
		off := 0
		for i, h := range hashes {
			if err := readChunk(c.chunkPath(h), payload[off:off+sizes[i]]); err != nil {
				return nil, fmt.Errorf("edge: cache file %s: chunk: %w", filepath.Base(path), err)
			}
			off += sizes[i]
			cuts[i] = chunker.Cut{Hash: h, Len: sizes[i]}
		}
	} else {
		// The file buffer is private to this read; the block keeps it.
		payload = fields[3]
	}
	medium, err := core.ParseMedium(string(fields[1]))
	if err != nil {
		return nil, fmt.Errorf("edge: cache file %s: %w", filepath.Base(path), err)
	}
	descs, err := media.ParseDescriptor(fields[2])
	if err != nil {
		return nil, fmt.Errorf("edge: cache file %s: %w", filepath.Base(path), err)
	}
	blk := media.NewBlock(string(fields[0]), medium, payload, descs)
	if blk.ID != wantID {
		return nil, fmt.Errorf("edge: cache file %s: payload hash mismatch", filepath.Base(path))
	}
	blk.SetCuts(cuts)
	return blk, nil
}

// readChunk reads the chunk file at path into slot, which must be the
// file's exact length: a shorter or longer file is an error.
func readChunk(path string, slot []byte) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = io.ReadFull(f, slot)
	if n, _ := f.Read(make([]byte, 1)); err == nil && n != 0 {
		err = fmt.Errorf("longer than indexed")
	}
	return err
}

// encodeNameFile serializes a name index entry: magic, then the served
// name and its content address, length-prefixed.
func encodeNameFile(name, id string) []byte {
	return appendFields(append([]byte(nil), diskMagic...), []byte(name), []byte(id))
}

// readNameFile loads one name index entry; ok is false on any damage.
func readNameFile(path string) (name, id string, ok bool) {
	data, err := os.ReadFile(path)
	if err != nil || !bytes.HasPrefix(data, diskMagic) {
		return "", "", false
	}
	fields, err := splitFields(data[len(diskMagic):], 2)
	if err != nil {
		return "", "", false
	}
	return string(fields[0]), string(fields[1]), true
}
