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

// TestChunkIndexBasics: DedupeStats's chunk set for one block above the
// threshold is exactly the block's cut, covering its payload.
func TestChunkIndexBasics(t *testing.T) {
	s := NewStore()
	payload := randomPayload(256<<10, 1)
	s.Put(NewBlock("video-a", core.MediumVideo, payload, attr.List{}))

	want := DedupeStats{ChunkedBlocks: 1, LogicalBytes: int64(len(payload)), UniqueBytes: int64(len(payload))}
	want.Chunks = len(chunker.Split(payload, chunker.Config{}))
	if want.Chunks < 2 {
		t.Fatalf("a 256 KiB payload cut into %d chunks", want.Chunks)
	}
	if got := s.DedupeStats(); got != want {
		t.Fatalf("DedupeStats = %+v, want %+v", got, want)
	}
}

func TestSmallBlocksNotChunked(t *testing.T) {
	s := NewStore()
	s.Put(NewBlock("tiny", core.MediumText, []byte("below threshold"), attr.List{}))
	if st := s.DedupeStats(); st != (DedupeStats{}) {
		t.Fatalf("sub-threshold block counted as chunked: %+v", st)
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

	// After deleting one near-duplicate, the figures are the survivor's
	// alone; after deleting both, nothing is left.
	alone := NewStore()
	alone.Put(b)
	s.Delete(a.ID)
	if got, want := s.DedupeStats(), alone.DedupeStats(); got != want || want.ChunkedBlocks != 1 {
		t.Fatalf("after one delete: %+v, want the survivor's %+v", got, want)
	}
	s.Delete(b.ID)
	if st := s.DedupeStats(); st != (DedupeStats{}) {
		t.Fatalf("figures not empty after deleting all blocks: %+v", st)
	}
}

func TestGetRefNoClone(t *testing.T) {
	s := NewStore()
	b := NewBlock("ref", core.MediumImage, randomPayload(32<<10, 7), attr.List{})
	if _, err := s.Put(b); err != nil {
		t.Fatal(err)
	}

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
