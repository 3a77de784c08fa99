package edge

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/media"
)

// nearDupBlocks builds n large blocks sharing one random base payload,
// each with a small splice, so they share most content-defined chunks.
func nearDupBlocks(t *testing.T, n, size int) []*media.Block {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	base := make([]byte, size)
	rng.Read(base)
	blocks := make([]*media.Block, n)
	for i := range blocks {
		payload := append([]byte(nil), base...)
		off := (i * 4099) % (size - 64)
		rng.Read(payload[off : off+64])
		blocks[i] = media.NewBlock("dup.vid", core.MediumVideo, payload, attr.List{})
	}
	return blocks
}

func countFiles(t *testing.T, dir, ext string) int {
	t.Helper()
	dents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, de := range dents {
		if strings.HasSuffix(de.Name(), ext) {
			n++
		}
	}
	return n
}

// TestDiskCacheChunkDedupe: near-duplicate blocks share chunk files on
// disk, total disk usage stays near one payload, and both read back
// byte-identical — including after a reopen that rebuilds refcounts.
func TestDiskCacheChunkDedupe(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenDiskCache(dir, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	const size = 128 << 10
	blocks := nearDupBlocks(t, 4, size)
	for _, b := range blocks {
		c.Put(b.Name, b)
	}
	st := c.Stats()
	if st.Chunks == 0 {
		t.Fatal("no shared chunks recorded")
	}
	if st.Bytes > 2*size {
		t.Fatalf("4 near-duplicates of a %d-byte payload occupy %d disk bytes; dedupe failed", size, st.Bytes)
	}
	if got := countFiles(t, dir, chunkExt); got != st.Chunks {
		t.Fatalf("chunk files on disk %d != indexed chunks %d", got, st.Chunks)
	}
	for _, b := range blocks {
		got, ok := c.Get(b.ID)
		if !ok || !bytes.Equal(got.Payload, b.Payload) {
			t.Fatalf("block %.12s did not read back byte-equal (ok=%v)", b.ID, ok)
		}
	}

	// Reopen: the manifest scan must rebuild refcounts and byte
	// accounting, and every block must still read back.
	c2, err := OpenDiskCache(dir, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	st2 := c2.Stats()
	if st2.Blocks != len(blocks) || st2.Chunks != st.Chunks || st2.Bytes != st.Bytes {
		t.Fatalf("reopen changed accounting: %+v vs %+v", st2, st)
	}
	for _, b := range blocks {
		got, ok := c2.Get(b.ID)
		if !ok || !bytes.Equal(got.Payload, b.Payload) {
			t.Fatalf("block %.12s lost across reopen (ok=%v)", b.ID, ok)
		}
	}
}

// TestDiskCacheLegacyFormatReadable: a CMEB1 file written by an earlier
// build — full payload inline, whatever its size — still serves.
func TestDiskCacheLegacyFormatReadable(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("legacy payload "), 4<<10) // ≥ ChunkThreshold
	b := media.NewBlock("old.vid", core.MediumVideo, payload, attr.List{})
	if err := fsio.WriteFileNoDirSync(filepath.Join(dir, b.ID+blockExt), encodeBlockFile(diskMagic, b, b.Payload), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenDiskCache(dir, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(b.ID)
	if !ok || !bytes.Equal(got.Payload, b.Payload) {
		t.Fatalf("legacy CMEB1 block unreadable (ok=%v)", ok)
	}
	if st := c.Stats(); st.Chunks != 0 {
		t.Fatalf("legacy block must not grow chunk state: %+v", st)
	}
}

// TestDiskCacheEvictionReleasesChunks: evicting the last block that
// references a chunk deletes its file; shared chunks survive while any
// referencing block remains.
func TestDiskCacheEvictionReleasesChunks(t *testing.T) {
	dir := t.TempDir()
	const size = 64 << 10
	c, err := OpenDiskCache(dir, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	// Two unrelated payloads: no chunk sharing between them.
	p1 := make([]byte, size)
	p2 := make([]byte, size)
	rng.Read(p1)
	rng.Read(p2)
	b1 := media.NewBlock("one.vid", core.MediumVideo, p1, attr.List{})
	b2 := media.NewBlock("two.vid", core.MediumVideo, p2, attr.List{})
	c.Put(b1.Name, b1)
	c.Put(b2.Name, b2)
	before := c.Stats()

	// Dropping b1 (corruption path) must remove exactly its chunks.
	c.drop(b1.ID)
	after := c.Stats()
	if after.Blocks != 1 || after.Chunks >= before.Chunks {
		t.Fatalf("drop did not release chunks: before %+v after %+v", before, after)
	}
	if got, ok := c.Get(b2.ID); !ok || !bytes.Equal(got.Payload, p2) {
		t.Fatalf("surviving block damaged by unrelated drop (ok=%v)", ok)
	}
	if got := countFiles(t, dir, chunkExt); got != after.Chunks {
		t.Fatalf("chunk files on disk %d != indexed %d after drop", got, after.Chunks)
	}

	// A corrupted chunk file degrades the block to a miss and the entry
	// is dropped, chunk files cleaned.
	var victim media.ChunkHash
	c.mu.Lock()
	for h := range c.chunkRefs {
		victim = h
		break
	}
	c.mu.Unlock()
	if err := os.WriteFile(c.chunkPath(victim), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(b2.ID); ok {
		t.Fatal("block with corrupt chunk served")
	}
	if st := c.Stats(); st.Blocks != 0 || st.Chunks != 0 || st.Bytes != 0 {
		t.Fatalf("corrupt-chunk drop left residue: %+v", st)
	}
}

// TestDiskCacheSweepsCrashResidue: the staging file of a write killed
// before its rename is named by fsio (<base>.tmp-<random>), whatever kind
// of file it was going to become; open removes it and never counts it.
func TestDiskCacheSweepsCrashResidue(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenDiskCache(dir, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range nearDupBlocks(t, 2, 32<<10) {
		c.Put(b.Name, b)
	}
	before := c.Stats()
	residue := []string{"x" + blockExt + ".tmp-123", "y" + chunkExt + ".tmp-9"}
	for _, name := range residue {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("half a write"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c2, err := OpenDiskCache(dir, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range residue {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s survived the reopen (stat err = %v)", name, err)
		}
	}
	if after := c2.Stats(); after.Bytes != before.Bytes || after.Blocks != before.Blocks {
		t.Errorf("residue changed the accounting: before %+v after %+v", before, after)
	}
}

// TestDiskCacheNameIndexFollowsBlocks: under a fixed budget and a
// churning set of names, a name whose block was evicted is forgotten the
// next time it is looked up, and a reopen forgets the rest — the name
// index does not grow with every name ever served.
func TestDiskCacheNameIndexFollowsBlocks(t *testing.T) {
	dir := t.TempDir()
	const budget = 8 << 10
	c, err := OpenDiskCache(dir, budget)
	if err != nil {
		t.Fatal(err)
	}
	put := func(c *DiskCache, from, to int) (names []string) {
		for i := from; i < to; i++ {
			name := fmt.Sprintf("clip-%d.txt", i)
			payload := bytes.Repeat([]byte{byte(i)}, 1<<10)
			c.Put(name, media.NewBlock(name, core.MediumText, payload, attr.List{}))
			names = append(names, name)
		}
		return names
	}
	names := put(c, 0, 32)
	resident := c.Stats().Blocks
	if resident == 0 || resident >= len(names) {
		t.Fatalf("want some but not all of %d blocks resident under %d bytes, have %d", len(names), budget, resident)
	}
	hits := 0
	for _, name := range names {
		if _, ok := c.Get(name); ok {
			hits++
		}
	}
	if hits != resident {
		t.Fatalf("%d names hit, %d blocks resident", hits, resident)
	}
	if got := countFiles(t, dir, nameExt); got != resident {
		t.Errorf("%d name files after every name was looked up, want %d (one per resident block)", got, resident)
	}
	c.mu.Lock()
	inMemory := len(c.names)
	c.mu.Unlock()
	if inMemory != resident {
		t.Errorf("%d names in memory, want %d", inMemory, resident)
	}

	// Names evicted but never looked up again linger only until reopen.
	put(c, 32, 64)
	resident = c.Stats().Blocks
	if got := countFiles(t, dir, nameExt); got < resident || got > resident+32 {
		t.Errorf("%d name files for %d resident blocks and at most 32 names not looked up again", got, resident)
	}
	c2, err := OpenDiskCache(dir, budget)
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.Blocks != resident {
		t.Fatalf("reopen holds %d blocks, want %d", st.Blocks, resident)
	}
	if got := countFiles(t, dir, nameExt); got != resident {
		t.Errorf("%d name files after reopen, want exactly %d", got, resident)
	}
}

// TestDiskCachePayloadExactSize: a block read back from disk is cached by
// pointer upstream, so its payload must not carry spare capacity — in
// either file format.
func TestDiskCachePayloadExactSize(t *testing.T) {
	c, err := OpenDiskCache(t.TempDir(), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for _, size := range []int{1000, 100<<10 + 7} { // CMEB1 inline, CMEB2 chunked
		payload := make([]byte, size)
		rng.Read(payload)
		b := media.NewBlock(fmt.Sprintf("exact-%d", size), core.MediumImage, payload, attr.List{})
		c.Put(b.Name, b)
		got, ok := c.Get(b.Name)
		if !ok || !bytes.Equal(got.Payload, payload) {
			t.Fatalf("%d-byte block did not read back (ok=%v)", size, ok)
		}
		if cap(got.Payload) != len(got.Payload) {
			t.Errorf("%d-byte block: cap %d != len %d", size, cap(got.Payload), len(got.Payload))
		}
	}
	if st := c.Stats(); st.Chunks == 0 {
		t.Fatal("the large block was not stored chunked; the CMEB2 path went untested")
	}
}

// TestDiskCacheEvictionSparesIncomingChunks: when admitting a block
// pushes out an older near-duplicate, the chunks the two share belong to
// the newcomer by then and must survive the older block's eviction.
func TestDiskCacheEvictionSparesIncomingChunks(t *testing.T) {
	dir := t.TempDir()
	blocks := nearDupBlocks(t, 2, 128<<10)
	probe, err := OpenDiskCache(t.TempDir(), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	probe.Put("", blocks[0])
	// Room for one of the two and a little more, never for both.
	c, err := OpenDiskCache(dir, probe.Stats().Bytes+1<<10)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("", blocks[0])
	c.Put("", blocks[1])
	st := c.Stats()
	if st.Blocks != 1 || st.Evictions != 1 {
		t.Fatalf("want the older block evicted for the newer: %+v", st)
	}
	if got, ok := c.Get(blocks[1].ID); !ok || !bytes.Equal(got.Payload, blocks[1].Payload) {
		t.Fatalf("the admitted block lost chunks it shared with the evicted one (ok=%v)", ok)
	}
	if got := countFiles(t, dir, chunkExt); got != st.Chunks {
		t.Errorf("%d chunk files on disk, %d indexed", got, st.Chunks)
	}
}
