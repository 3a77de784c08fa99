package media

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/attr"
	"repro/internal/chunker"
	"repro/internal/core"
)

func randomPayload(n int, seed int64) []byte {
	p := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

// nearDuplicate flips a few bytes of p, modeling an edited re-encode.
func nearDuplicate(p []byte, edits int, seed int64) []byte {
	out := bytes.Clone(p)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < edits; i++ {
		out[rng.Intn(len(out))] ^= 0x5A
	}
	return out
}

func TestChunkIndexBasics(t *testing.T) {
	s := NewStore()
	payload := randomPayload(256<<10, 1)
	b := NewBlock("video-a", core.MediumVideo, payload, attr.List{})
	s.Put(b)

	hashes, ok := s.Manifest(b.ID)
	if !ok {
		t.Fatal("large block has no manifest")
	}
	var joined []byte
	for _, h := range hashes {
		c, ok := s.GetChunk(h)
		if !ok {
			t.Fatal("manifest references missing chunk")
		}
		if chunker.Sum(c) != h {
			t.Fatal("chunk bytes do not match their hash")
		}
		joined = append(joined, c...)
	}
	if !bytes.Equal(joined, payload) {
		t.Fatal("manifest chunks do not reassemble the payload")
	}
}

func TestSmallBlocksNotChunked(t *testing.T) {
	s := NewStore()
	b := NewBlock("tiny", core.MediumText, []byte("below threshold"), attr.List{})
	s.Put(b)
	if _, ok := s.Manifest(b.ID); ok {
		t.Fatal("sub-threshold block got a manifest")
	}
}

func TestNearDuplicatesShareChunks(t *testing.T) {
	s := NewStore()
	base := randomPayload(512<<10, 2)
	s.Put(NewBlock("v-en", core.MediumVideo, base, attr.List{}))
	s.Put(NewBlock("v-nl", core.MediumVideo, nearDuplicate(base, 3, 3), attr.List{}))
	s.Put(NewBlock("v-fr", core.MediumVideo, nearDuplicate(base, 3, 4), attr.List{}))

	st := s.DedupeStats()
	if st.ChunkedBlocks != 3 {
		t.Fatalf("chunked blocks = %d, want 3", st.ChunkedBlocks)
	}
	// Three near-identical 512K variants should dedupe well below 2x
	// the base size; without dedupe they would occupy 3x.
	if st.UniqueBytes >= 2*int64(len(base)) {
		t.Fatalf("unique bytes %d show no dedupe (logical %d)", st.UniqueBytes, st.LogicalBytes)
	}
	if st.LogicalBytes != 3*int64(len(base)) {
		t.Fatalf("logical bytes %d, want %d", st.LogicalBytes, 3*int64(len(base)))
	}
}

func TestDeleteReleasesChunks(t *testing.T) {
	s := NewStore()
	base := randomPayload(128<<10, 5)
	a := NewBlock("a", core.MediumVideo, base, attr.List{})
	b := NewBlock("b", core.MediumVideo, nearDuplicate(base, 2, 6), attr.List{})
	s.Put(a)
	s.Put(b)

	// Deleting one near-duplicate must keep every chunk the survivor
	// references, and drop the rest.
	s.Delete(a.ID)
	hashes, ok := s.Manifest(b.ID)
	if !ok {
		t.Fatal("survivor lost its manifest")
	}
	for _, h := range hashes {
		if _, ok := s.GetChunk(h); !ok {
			t.Fatal("survivor chunk GC'd while still referenced")
		}
	}
	s.Delete(b.ID)
	st := s.DedupeStats()
	if st.Chunks != 0 || st.UniqueBytes != 0 || st.ChunkedBlocks != 0 {
		t.Fatalf("index not empty after deleting all blocks: %+v", st)
	}
}

func TestGetRefNoClone(t *testing.T) {
	s := NewStore()
	b := NewBlock("ref", core.MediumImage, randomPayload(32<<10, 7), attr.List{})
	s.PutReplayed(b, true)

	got, ok := s.GetRef(b.ID)
	if !ok {
		t.Fatal("GetRef missed")
	}
	if &got.Payload[0] != &b.Payload[0] {
		t.Fatal("GetRef cloned the payload")
	}
	byName, ok := s.GetByName("ref")
	if !ok || byName != got {
		t.Fatal("GetByName did not return the same stored block")
	}
}

// TestChunkIndexAliasesStoredPayload pins what GetChunk documents: the
// chunk index holds subslices of the stored block's payload, laid end to
// end, not copies — indexing costs hashing, not storage.
func TestChunkIndexAliasesStoredPayload(t *testing.T) {
	s := NewStore()
	b := NewBlock("idx", core.MediumAudio, randomPayload(64<<10, 8), attr.List{})
	s.Put(b)
	hashes, ok := s.Manifest(b.ID)
	if !ok {
		t.Fatal("no manifest")
	}
	off := 0
	for i, h := range hashes {
		c, ok := s.GetChunk(h)
		if !ok {
			t.Fatalf("chunk %d missing", i)
		}
		if &c[0] != &b.Payload[off] {
			t.Fatalf("chunk %d is a copy, want a subslice of the stored payload at %d", i, off)
		}
		off += len(c)
	}
	if off != len(b.Payload) {
		t.Fatalf("chunks cover %d of %d bytes", off, len(b.Payload))
	}
}

func TestPayloadReader(t *testing.T) {
	b := NewBlock("r", core.MediumText, []byte("random access payload"), attr.List{})
	r := b.PayloadReader()
	buf := make([]byte, 6)
	if _, err := r.ReadAt(buf, 7); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "access" {
		t.Fatalf("ReadAt got %q", buf)
	}
}

// splicedVariants returns n near-duplicates of one seeded base payload,
// each with a 128-byte splice at its own offset (the shape
// durable/snapshot_v2_test.go builds).
func splicedVariants(n, size int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	base := make([]byte, size)
	rng.Read(base)
	out := make([][]byte, n)
	for i := range out {
		p := bytes.Clone(base)
		off := (i * 8191) % (size - 128)
		rng.Read(p[off : off+128])
		out[i] = p
	}
	return out
}

// indexSize counts manifests and chunk entries, white-box.
func indexSize(s *Store) (manifests, chunks int) {
	for i := range s.manifests {
		manifests += len(s.manifests[i].byID)
	}
	for i := range s.chunks {
		chunks += len(s.chunks[i].byHash)
	}
	return manifests, chunks
}

// cutDirectly is the manifest computed without a store.
func cutDirectly(payload []byte) []ChunkHash {
	var hashes []ChunkHash
	for _, c := range chunker.Split(payload, chunker.Config{}) {
		hashes = append(hashes, chunker.Sum(c))
	}
	return hashes
}

// TestManifestBuiltOnDemand pins when the index exists: Put builds none
// of it, the first Manifest request cuts exactly what chunker.Split +
// chunker.Sum give, later requests are lookups, and Delete releases
// exactly the references the manifest took.
func TestManifestBuiltOnDemand(t *testing.T) {
	s := NewStore()
	variants := splicedVariants(3, 96<<10, 11)
	blocks := make([]*Block, len(variants))
	for i, p := range variants {
		blocks[i] = NewBlock("", core.MediumVideo, p, attr.List{})
		s.Put(blocks[i])
	}
	small := NewBlock("small", core.MediumText, randomPayload(ChunkThreshold-1, 12), attr.List{})
	s.Put(small)
	if m, c := indexSize(s); m != 0 || c != 0 {
		t.Fatalf("Put built %d manifests and %d chunk entries, want none", m, c)
	}

	first, ok := s.Manifest(blocks[0].ID)
	if !ok {
		t.Fatal("no manifest for a block above the threshold")
	}
	want := cutDirectly(blocks[0].Payload)
	if len(first) != len(want) {
		t.Fatalf("manifest has %d chunks, direct cut %d", len(first), len(want))
	}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("chunk %d differs from the direct cut", i)
		}
	}
	if m, c := indexSize(s); m != 1 || c == 0 || c > len(want) {
		t.Fatalf("after one request: %d manifests, %d chunk entries (cut has %d chunks)", m, c, len(want))
	}
	again, _ := s.Manifest(blocks[0].ID)
	if &again[0] != &first[0] {
		t.Fatal("second Manifest call re-cut the block")
	}

	if _, ok := s.Manifest(small.ID); ok {
		t.Fatal("sub-threshold block got a manifest")
	}
	if _, ok := s.Manifest("no-such-id"); ok {
		t.Fatal("absent id got a manifest")
	}
	if m, _ := indexSize(s); m != 1 {
		t.Fatalf("refused requests left %d manifests, want 1", m)
	}

	// Cut the other two; then deleting one block must release exactly its
	// references: the survivors' refcounts are what their manifests hold.
	s.Manifest(blocks[1].ID)
	s.Manifest(blocks[2].ID)
	s.Delete(blocks[0].ID)
	checkRefcounts(t, s)
	s.Delete(blocks[1].ID)
	s.Delete(blocks[2].ID)
	if m, c := indexSize(s); m != 0 || c != 0 {
		t.Fatalf("index holds %d manifests, %d chunks after deleting every block", m, c)
	}
}

// checkRefcounts asserts, on a quiescent store, that the chunk table is
// exactly what the live manifests reference: every entry's refs equals
// the references to it, none is ≤ 0, no manifest outlives its block, and
// every manifest hash resolves to bytes that hash to it.
func checkRefcounts(t *testing.T, s *Store) {
	t.Helper()
	held := make(map[ChunkHash]int)
	for i := range s.manifests {
		for id, m := range s.manifests[i].byID {
			if _, ok := s.Get(id); !ok {
				t.Errorf("manifest for absent block %s", id[:12])
			}
			for _, h := range m.hashes {
				held[h]++
				c, ok := s.GetChunk(h)
				if !ok {
					t.Errorf("block %s references a missing chunk", id[:12])
				} else if chunker.Sum(c) != h {
					t.Errorf("block %s: chunk bytes do not match their hash", id[:12])
				}
			}
		}
	}
	entries := 0
	for i := range s.chunks {
		for h, e := range s.chunks[i].byHash {
			entries++
			if e.refs <= 0 {
				t.Errorf("chunk entry with refs %d", e.refs)
			}
			if e.refs != held[h] {
				t.Errorf("chunk refs = %d, live manifests hold %d", e.refs, held[h])
			}
		}
	}
	if entries != len(held) {
		t.Errorf("%d chunk entries, live manifests reference %d", entries, len(held))
	}
}

// TestLazyIndexEqualsEagerIndex: the index a store builds when finally
// asked is the one it would have built had every Put been followed by a
// Manifest request — what Put itself used to do.
func TestLazyIndexEqualsEagerIndex(t *testing.T) {
	lazy, eager := NewStore(), NewStore()
	var payloads [][]byte
	for g := 0; g < 5; g++ {
		payloads = append(payloads, splicedVariants(8, 48<<10, int64(20+g))...)
	}
	for i := 0; i < 10; i++ { // unrelated blocks, some below the threshold
		payloads = append(payloads, randomPayload(1<<10+i*3<<10, int64(40+i)))
	}
	if len(payloads) != 50 {
		t.Fatalf("built %d payloads, want 50", len(payloads))
	}
	for _, p := range payloads {
		lazy.Put(NewBlock("", core.MediumVideo, p, attr.List{}))
		b := NewBlock("", core.MediumVideo, p, attr.List{})
		eager.Put(b)
		eager.Manifest(b.ID)
	}
	if m, c := indexSize(lazy); m != 0 || c != 0 {
		t.Fatalf("unasked store holds %d manifests, %d chunks", m, c)
	}
	got, want := lazy.DedupeStats(), eager.DedupeStats()
	if got != want {
		t.Fatalf("lazy index %+v, eager index %+v", got, want)
	}
	if want.ChunkedBlocks == 0 || want.UniqueBytes >= want.LogicalBytes {
		t.Fatalf("corpus did not dedupe: %+v", want)
	}
	checkRefcounts(t, lazy)
}

// TestPutCutsNothing is the ceiling on Put's work: storing a 1 MiB block
// allocates a map slot or two, not a chunk entry per 8 KiB of payload.
func TestPutCutsNothing(t *testing.T) {
	b := NewBlock("big.vid", core.MediumVideo, randomPayload(1<<20, 13), attr.List{})
	const runs = 10
	stores := make([]*Store, runs+1) // AllocsPerRun warms up with one extra call
	for i := range stores {
		stores[i] = NewStore()
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		stores[next].Put(b)
		next++
	})
	if allocs > 8 {
		t.Fatalf("Put of a 1 MiB block made %.0f allocations, want <= 8: it is cutting the payload", allocs)
	}
}
