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
