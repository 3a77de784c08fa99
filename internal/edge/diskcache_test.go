package edge

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/attr"
	"repro/internal/chunker"
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
	if err := fsio.WriteFileNoDirSync(filepath.Join(dir, b.ID+blockExt), encodeBlockFile(diskMagic, b, descText(t, b), b.Payload), 0o644); err != nil {
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
// referencing block remains. Damage, which drops through the same path,
// is TestDiskCacheDamageIsAMiss.
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

// TestDiskCachePutRefusesUnencodableDescriptor: a block whose descriptor
// the encoder rejects (an attribute named after a node type) is not
// cached at all — in either file format, and not under its served name —
// rather than written with some other descriptor.
func TestDiskCachePutRefusesUnencodableDescriptor(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenDiskCache(dir, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	desc := attr.MustList(attr.P(media.DescTitle, attr.String("kept")), attr.P("seq", attr.Number(1)))
	for _, size := range []int{11, 100 << 10} { // CMEB1 inline, CMEB2 chunked
		b := media.NewBlock(fmt.Sprintf("bad-%d.txt", size), core.MediumText, bytes.Repeat([]byte("x"), size), desc)
		if _, err := b.DescriptorText(); err == nil {
			t.Fatal("the encoder accepted an attribute named seq; the test needs one it rejects")
		}
		c.Put("served-"+b.Name, b)
		if got, ok := c.Get(b.Name); ok {
			t.Errorf("%d-byte block: Get served %v with descriptor %v", size, got, got.Descriptor)
		}
		if _, ok := c.Get("served-" + b.Name); ok {
			t.Errorf("%d-byte block: Get served it under its served name", size)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("Put left %s behind", e.Name())
	}
	if st := c.Stats(); st.Blocks != 0 || st.Chunks != 0 {
		t.Errorf("Stats = %+v, want nothing cached", st)
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

// damageFixture is a cache holding three blocks: a chunked victim, a
// chunked sibling that shares every chunk of the victim but one, and a
// small inline (CMEB1) block. own is the victim's chunk the sibling
// lacks; other is the sibling's chunk in its place, of the same length.
type damageFixture struct {
	c                       *DiskCache
	dir                     string
	victim, sibling, inline *media.Block
	own, other              media.ChunkHash
}

func newDamageFixture(t *testing.T, reopen bool) *damageFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(19))
	payload := make([]byte, 128<<10)
	rng.Read(payload)
	// Flip one byte in the middle of a middle chunk: far enough from its
	// end that the cut stays put, so the sibling's chunk there has the
	// victim's length and every other chunk is shared.
	pieces := chunker.Split(payload, chunker.Config{})
	start := 0
	for _, p := range pieces[:len(pieces)/2] {
		start += len(p)
	}
	k := pieces[len(pieces)/2]
	sibling := append([]byte(nil), payload...)
	sibling[start+len(k)/2] ^= 0xff
	f := &damageFixture{
		dir:     t.TempDir(),
		victim:  media.NewBlock("victim.vid", core.MediumVideo, payload, attr.List{}),
		sibling: media.NewBlock("sibling.vid", core.MediumVideo, sibling, attr.List{}),
		inline:  media.NewBlock("inline.txt", core.MediumText, []byte("a small inline block"), attr.List{}),
		own:     chunker.Sum(k),
		other:   chunker.Sum(sibling[start : start+len(k)]),
	}
	if got := chunkSet(f.sibling.Payload); !got[f.other] || got[f.own] || len(got) != len(chunkSet(payload)) {
		t.Fatal("the sibling does not swap exactly one same-length chunk; pick another seed")
	}
	c, err := OpenDiskCache(f.dir, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []*media.Block{f.victim, f.sibling, f.inline} {
		c.Put(b.Name, b)
	}
	if reopen {
		if c, err = OpenDiskCache(f.dir, 1<<30); err != nil {
			t.Fatal(err)
		}
	}
	f.c = c
	return f
}

// chunkSet is the set of chunk addresses a chunked payload is stored as.
func chunkSet(payload []byte) map[media.ChunkHash]bool {
	set := make(map[media.ChunkHash]bool)
	if len(payload) >= media.ChunkThreshold {
		for _, p := range chunker.Split(payload, chunker.Config{}) {
			set[chunker.Sum(p)] = true
		}
	}
	return set
}

// rewrite replaces the file at path with edit applied to its bytes.
func rewrite(t *testing.T, path string, edit func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, edit(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDiskCacheDamageIsAMiss: whatever is damaged — a chunk file's bytes
// or length, the manifest, the medium, an inline payload or the magic —
// the block's content address catches it. The read is a miss, the entry
// and every chunk only it referenced are gone, and the blocks that
// survive still serve byte-identically, shared chunks included. Each row
// runs on entries admitted by Put and on entries rebuilt by a reopen.
func TestDiskCacheDamageIsAMiss(t *testing.T) {
	type row struct {
		name   string
		inline bool // the damage hits the inline block, not the victim
		damage func(t *testing.T, f *damageFixture)
	}
	rows := []row{
		{"chunk byte flipped", false, func(t *testing.T, f *damageFixture) {
			rewrite(t, f.c.chunkPath(f.own), func(b []byte) []byte { b[len(b)/2] ^= 1; return b })
		}},
		{"chunk file truncated", false, func(t *testing.T, f *damageFixture) {
			rewrite(t, f.c.chunkPath(f.own), func(b []byte) []byte { return b[:len(b)-1] })
		}},
		{"chunk file extended", false, func(t *testing.T, f *damageFixture) {
			rewrite(t, f.c.chunkPath(f.own), func(b []byte) []byte { return append(b, 0) })
		}},
		{"chunk file replaced by a resident chunk of the same length", false, func(t *testing.T, f *damageFixture) {
			rewrite(t, f.c.chunkPath(f.own), func([]byte) []byte {
				other, err := os.ReadFile(f.c.chunkPath(f.other))
				if err != nil {
					t.Fatal(err)
				}
				return other
			})
		}},
		{"manifest hash rewritten to a resident chunk", false, func(t *testing.T, f *damageFixture) {
			rewrite(t, f.c.blockPath(f.victim.ID), func(b []byte) []byte {
				return bytes.Replace(b, f.own[:], f.other[:], 1)
			})
		}},
		{"medium rewritten to another valid medium", false, func(t *testing.T, f *damageFixture) {
			rewrite(t, f.c.blockPath(f.victim.ID), func(b []byte) []byte {
				fields, err := splitFields(b[len(diskMagicV2):], 4)
				if err != nil {
					t.Fatal(err)
				}
				return appendFields(append([]byte(nil), diskMagicV2...), fields[0],
					[]byte(core.MediumAudio.String()), fields[2], fields[3])
			})
		}},
		{"CMEB1 payload byte flipped", true, func(t *testing.T, f *damageFixture) {
			rewrite(t, f.c.blockPath(f.inline.ID), func(b []byte) []byte { b[len(b)-1] ^= 1; return b })
		}},
		{"bad magic", false, func(t *testing.T, f *damageFixture) {
			rewrite(t, f.c.blockPath(f.victim.ID), func(b []byte) []byte { copy(b, "CMEB9"); return b })
		}},
	}
	for _, reopen := range []bool{false, true} {
		for _, r := range rows {
			t.Run(fmt.Sprintf("reopen=%v/%s", reopen, r.name), func(t *testing.T) {
				f := newDamageFixture(t, reopen)
				target, survivors := f.victim, []*media.Block{f.sibling, f.inline}
				if r.inline {
					target, survivors = f.inline, []*media.Block{f.victim, f.sibling}
				}
				r.damage(t, f)
				if _, ok := f.c.Get(target.ID); ok {
					t.Fatal("a damaged block was served")
				}
				if f.c.index.Contains(target.ID) {
					t.Error("the damaged entry is still indexed")
				}
				if _, err := os.Stat(f.c.blockPath(target.ID)); !os.IsNotExist(err) {
					t.Errorf("the damaged block file survived (stat err = %v)", err)
				}
				// The chunk files left are exactly the survivors' chunks,
				// and the budget charges exactly the files left.
				want := make(map[media.ChunkHash]bool)
				for _, b := range survivors {
					for h := range chunkSet(b.Payload) {
						want[h] = true
					}
				}
				dents, err := os.ReadDir(f.dir)
				if err != nil {
					t.Fatal(err)
				}
				var onDisk int64
				chunks := 0
				for _, de := range dents {
					name := de.Name()
					if !strings.HasSuffix(name, blockExt) && !strings.HasSuffix(name, chunkExt) {
						continue
					}
					info, err := de.Info()
					if err != nil {
						t.Fatal(err)
					}
					onDisk += info.Size()
					if hexHash, ok := strings.CutSuffix(name, chunkExt); ok {
						chunks++
						var h media.ChunkHash
						if raw, err := hex.DecodeString(hexHash); err != nil || copy(h[:], raw) != len(h) || !want[h] {
							t.Errorf("orphaned chunk file %s", name)
						}
					}
				}
				if st := f.c.Stats(); st.Blocks != len(survivors) || st.Chunks != len(want) || chunks != len(want) || st.Bytes != onDisk {
					t.Errorf("after the drop: %+v; want %d blocks, %d chunks (%d files), %d bytes on disk",
						st, len(survivors), len(want), chunks, onDisk)
				}
				for _, b := range survivors {
					got, ok := f.c.Get(b.ID)
					if !ok || got.ID != b.ID || !bytes.Equal(got.Payload, b.Payload) {
						t.Errorf("survivor %s no longer serves byte-identically (ok=%v)", b.Name, ok)
					}
				}
			})
		}
	}
}

// TestDiskCacheHitAllocatesOnePayload: a chunked disk hit reads each
// chunk file straight into one payload buffer at its exact size, so the
// hit allocates the payload and little else.
func TestDiskCacheHitAllocatesOnePayload(t *testing.T) {
	c, err := OpenDiskCache(t.TempDir(), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	const size = 128 << 10
	payload := make([]byte, size)
	rand.New(rand.NewSource(23)).Read(payload)
	b := media.NewBlock("alloc.vid", core.MediumVideo, payload, attr.List{})
	c.Put(b.Name, b)
	if st := c.Stats(); st.Chunks == 0 {
		t.Fatal("the block was not stored chunked; the CMEB2 path went untested")
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() {
		if got, ok := c.Get(b.ID); !ok || len(got.Payload) != size {
			t.Fatalf("disk hit failed (ok=%v)", ok)
		}
	})
	runtime.ReadMemStats(&after)
	// AllocsPerRun calls the function once more to warm up.
	perHit := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	t.Logf("a %d-byte disk hit: %.0f allocations, %.0f bytes (%.2fx the payload)", size, allocs, perHit, perHit/size)
	if perHit > 1.25*size {
		t.Errorf("a %d-byte disk hit allocates %.0f bytes, %.2fx the payload; want at most 1.25x", size, perHit, perHit/size)
	}
}

// TestDiskCachePutUnderSecondNameKeepsCuts: a block fetched under a
// second name, whose content the cache already holds, takes its cuts from
// the resident manifest, so the next response that carries it does not
// cut it again — and they are the cuts chunker makes of its payload.
func TestDiskCachePutUnderSecondNameKeepsCuts(t *testing.T) {
	c, err := OpenDiskCache(t.TempDir(), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 96<<10)
	rand.New(rand.NewSource(29)).Read(payload)
	first := media.NewBlock("first.vid", core.MediumVideo, payload, attr.List{})
	c.Put(first.Name, first)
	if st := c.Stats(); st.Chunks < 2 {
		t.Fatalf("the block was stored in %d chunks; the manifest path went untested", st.Chunks)
	}
	second := media.NewBlock("second.vid", core.MediumVideo, bytes.Clone(payload), attr.List{})
	if second.CutsKept() {
		t.Fatal("a fresh block holds cuts already")
	}
	c.Put(second.Name, second)
	if !second.CutsKept() {
		t.Fatal("the block put under a second name holds no cuts")
	}
	got, want := second.Cuts(), chunker.Cuts(payload)
	if len(got) != len(want) {
		t.Fatalf("%d cuts, chunker makes %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cut %d = %x/%d, chunker's %x/%d", i, got[i].Hash[:4], got[i].Len, want[i].Hash[:4], want[i].Len)
		}
	}
}

// TestDiskCacheConcurrentHitsAndEvictions: readers size a payload from
// the chunk index while writers push blocks out under a budget that holds
// about two of them, so chunks are released and re-admitted mid-read. A
// read that loses that race is a miss; a hit is always the block put.
func TestDiskCacheConcurrentHitsAndEvictions(t *testing.T) {
	blocks := nearDupBlocks(t, 4, 32<<10)
	probe, err := OpenDiskCache(t.TempDir(), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	probe.Put("", blocks[0])
	c, err := OpenDiskCache(t.TempDir(), 2*probe.Stats().Bytes)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				b := blocks[(g+i)%len(blocks)]
				c.Put(b.Name, b)
				if got, ok := c.Get(b.ID); ok && !bytes.Equal(got.Payload, b.Payload) {
					t.Errorf("a concurrent hit served the wrong bytes for %.12s", b.ID)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Hits == 0 || st.Evictions == 0 {
		t.Fatalf("the run never raced a hit against an eviction: %+v", st)
	}
}

// FuzzDiskCacheGet: arbitrary bytes as the block file of a known address,
// and optionally as the file of its one chunk, never panic the open scan
// or the read, and a hit serves exactly the block that was put. The name
// and descriptor are not content-addressed, so only the address, medium
// and payload are compared.
func FuzzDiskCacheGet(f *testing.F) {
	payload := bytes.Repeat([]byte("k"), media.ChunkThreshold)
	if n := len(chunker.Split(payload, chunker.Config{})); n != 1 {
		f.Fatalf("the fuzz payload splits into %d chunks, want 1", n)
	}
	want := media.NewBlock("fuzz.vid", core.MediumVideo, payload, attr.List{})
	h := chunker.Sum(payload)
	f.Add(encodeBlockFile(diskMagic, want, descText(f, want), payload), []byte(nil), false)
	f.Add(encodeBlockFile(diskMagicV2, want, descText(f, want), h[:]), payload, true)
	f.Fuzz(func(t *testing.T, blockFile, chunkFile []byte, withChunk bool) {
		dir := t.TempDir()
		probe := &DiskCache{dir: dir}
		if err := os.WriteFile(probe.blockPath(want.ID), blockFile, 0o644); err != nil {
			t.Fatal(err)
		}
		if withChunk {
			if err := os.WriteFile(probe.chunkPath(h), chunkFile, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		c, err := OpenDiskCache(dir, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := c.Get(want.ID)
		if ok && (got.ID != want.ID || got.Medium != want.Medium || !bytes.Equal(got.Payload, want.Payload)) {
			t.Fatalf("served %.12s (%v, %d bytes), want the block that was put", got.ID, got.Medium, len(got.Payload))
		}
	})
}

// descText is b's descriptor text, for writing block files by hand.
func descText(tb testing.TB, b *media.Block) []byte {
	tb.Helper()
	text, err := b.DescriptorText()
	if err != nil {
		tb.Fatal(err)
	}
	return text
}
