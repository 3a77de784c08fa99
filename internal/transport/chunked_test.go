package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"testing"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/media"
)

// edited returns a block named name whose payload is src's with the
// 16 bytes at off inverted: it shares every chunk of src but the ones
// around the edit.
func edited(name string, src *media.Block, off int) *media.Block {
	p := bytes.Clone(src.Payload)
	for i := off; i < off+16; i++ {
		p[i] ^= 0xff
	}
	return media.NewBlock(name, src.Medium, p, attr.List{})
}

// chunkedFixture is a store holding a 256 KiB block a, b (a edited in
// the middle), c (b edited again near its end, so it shares b's edited
// chunk), a block shorter than media.ChunkThreshold, and a second name
// for b.
func chunkedFixture(t *testing.T) (store *media.Store, a, b, c *media.Block) {
	t.Helper()
	a = randomBlock("a.vid", 256<<10, 61)
	b = edited("b.vid", a, 128<<10)
	c = edited("c.vid", b, 200<<10)
	store = media.NewStore()
	for _, blk := range []*media.Block{a, b, c, b.WithName("b2.vid"), media.CaptureText("small.txt", "small", "en")} {
		if _, err := store.Put(blk); err != nil {
			t.Fatal(err)
		}
	}
	return store, a, b, c
}

// wholeParts joins each response part with its tail: the parts a
// client reads.
func wholeParts(resp frame) [][]byte {
	out := make([][]byte, len(resp.parts))
	for i, p := range resp.parts {
		out[i] = append(bytes.Clone(p), tailAt(resp.tails, i)...)
	}
	return out
}

// TestGetBlksChunkedSpellsSharedChunks: a getblks response
// sends the first of the near-duplicates whole and each later one as a
// chunked entry copying the chunks earlier entries carried — from a
// found entry and from a chunked one — and a repeat of a chunked block
// as a back-reference to it. The client rebuilds every payload byte for
// byte, named by its hash, from a response about a third of the size
// of the payloads it spells.
func TestGetBlksChunkedSpellsSharedChunks(t *testing.T) {
	store, a, b, c := chunkedFixture(t)
	srv := NewServer(NewRegistry(store))
	req := keysOf("a.vid", "small.txt", "ghost", "b.vid", "c.vid", "b2.vid")
	resp := srv.handle(frame{op: opGetBlks, parts: req})
	if resp.op != opOK {
		t.Fatalf("response op %d: %q", resp.op, resp.parts)
	}
	parts := wholeParts(resp)
	wantFlags := []byte{entryFound, entryFound, entryMissing, entryChunked, entryChunked, entryRef}
	for i, want := range wantFlags {
		if parts[i][0] != want {
			t.Errorf("entry %d (%s): flag %d, want %d", i, req[i], parts[i][0], want)
		}
	}
	copiesFrom := map[int]bool{}
	for _, i := range []int{3, 4} {
		_, size, segs, err := decodeChunked(parts[i])
		if err != nil || size != len(a.Payload) {
			t.Fatalf("entry %d: size %d, %v", i, size, err)
		}
		for _, sg := range segs {
			if sg.entry >= 0 {
				copiesFrom[sg.entry] = true
			}
		}
	}
	if !copiesFrom[0] || !copiesFrom[3] {
		t.Errorf("copies come from entries %v, want from the found entry 0 and the chunked entry 3", copiesFrom)
	}
	if j, name, err := decodeRef(parts[5]); err != nil || j != 3 || len(name) != 0 {
		t.Errorf("b2.vid: reference to %d named %q (%v), want entry 3 under its name", j, name, err)
	}

	blocks, _, err := decodeBlocks(parts)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []*media.Block{a, nil, nil, b, c, b} {
		if want == nil {
			continue
		}
		if got := blocks[i]; got == nil || got.ID != want.ID || !bytes.Equal(got.Payload, want.Payload) || got.Verify() != nil {
			t.Errorf("entry %d (%s): rebuilt another block", i, req[i])
		}
	}
	if blocks[5] != blocks[3] {
		t.Error("the back-reference to a chunked entry did not resolve to its block")
	}

	size := func(ps [][]byte) (n int) {
		for _, p := range ps {
			n += len(p)
		}
		return n
	}
	plain := len(a.Payload) + 2*len(b.Payload) + len(c.Payload)
	if got := size(parts); got*3 > plain+len(a.Payload)/2 {
		t.Errorf("chunked response %d bytes for %d payload bytes: want about a third", got, plain)
	}
}

// TestOneChunkableBlockCutsNothing: a response inlining at most one
// block past media.ChunkThreshold leaves every block uncut, however many
// small ones ride along; one inlining two cuts both, once.
func TestOneChunkableBlockCutsNothing(t *testing.T) {
	store, a, b, _ := chunkedFixture(t)
	srv := NewServer(NewRegistry(store))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	stored := func(name string) *media.Block {
		blk, _ := store.GetByName(name)
		return blk
	}

	if _, err := cl.GetBlock(ctx, "a.vid"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.GetBlocks(ctx, []string{"b.vid", "small.txt", "ghost"}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a.vid", "b.vid"} {
		if stored(name).CutsKept() {
			t.Fatalf("a response with one chunkable block cut %s", name)
		}
	}
	got, err := cl.GetBlocks(ctx, []string{"a.vid", "b.vid"})
	if err != nil {
		t.Fatal(err)
	}
	if !stored("a.vid").CutsKept() || !stored("b.vid").CutsKept() {
		t.Error("a response with two chunkable blocks left one uncut")
	}
	if got[0].ID != a.ID || got[1].ID != b.ID || got[0].CutsKept() || got[1].CutsKept() {
		t.Error("the client fetched the wrong blocks, or cut them")
	}
}

// TestChunkedResponseMatchesWholeEntries: an opGetBlks response,
// whose chunked entries go out as heads and tails of many slices, is on
// the wire byte for byte the frame of its whole entries, on the
// buffered, vectored and compressed paths.
func TestChunkedResponseMatchesWholeEntries(t *testing.T) {
	old := vectoredThreshold
	t.Cleanup(func() { vectoredThreshold = old })
	store, _, _, _ := chunkedFixture(t)
	text := textBlockV4("story.txt", 20<<10) // compressible, so the envelope ships
	store.Put(text)
	store.Put(edited("story2.txt", text, 10<<10))
	resp := NewServer(NewRegistry(store)).handle(frame{op: opGetBlks,
		parts: keysOf("a.vid", "b.vid", "story.txt", "story2.txt", "small.txt")})
	var plain bytes.Buffer
	if err := writeFrameV2(&plain, opOK, 7, wholeParts(resp)...); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name      string
		threshold int
		compress  bool
	}{{"buffered", 1 << 30, false}, {"vectored", 1, false}, {"compressed", 1 << 30, true}} {
		vectoredThreshold = mode.threshold
		var got bytes.Buffer
		s := newFrameSender(&got)
		s.compress = mode.compress
		if _, err := s.send(frameV2{op: resp.op, id: 7, parts: resp.parts, tails: resp.tails}); err != nil {
			t.Fatal(err)
		}
		if err := s.flush(); err != nil {
			t.Fatal(err)
		}
		f, err := readFrameV2(&got)
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		var again bytes.Buffer
		if err := writeFrameV2(&again, f.op, f.id, f.parts...); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), plain.Bytes()) {
			t.Errorf("%s: the frame read back differs from the whole-entry frame", mode.name)
		}
	}
}

// TestGetBlksChunkedServesLiteralsUncopied: answering and writing an
// opGetBlks response for two 1 MiB near-duplicates allocates the
// entries' heads, segments and chunk index, never payload bytes.
func TestGetBlksChunkedServesLiteralsUncopied(t *testing.T) {
	a := randomBlock("a.vid", 1<<20, 71)
	store := media.NewStore()
	store.Put(a)
	store.Put(edited("b.vid", a, 1<<19))
	srv := NewServer(NewRegistry(store))
	s := newFrameSender(io.Discard)
	req := frame{op: opGetBlks, parts: keysOf("a.vid", "b.vid")}
	if resp := srv.handle(req); resp.parts[1][0] != entryChunked {
		t.Fatal("the near-duplicate did not travel chunked")
	}
	perOp := allocatedPerRun(20, func() {
		resp := srv.handle(req)
		if _, err := s.send(frameV2{op: resp.op, id: 1, parts: resp.parts, tails: resp.tails}); err != nil {
			t.Fatal(err)
		}
	})
	if perOp > 64<<10 {
		t.Errorf("a chunked getblks of two %d-byte blocks allocates %.0f bytes; want at most 64 KiB", len(a.Payload), perOp)
	}
}

// Builders for hand-made chunked entries.

func chunkedPart(size int, segs ...[]byte) []byte {
	p := []byte{entryChunked}
	for _, f := range []string{"x.vid", core.MediumVideo.String(), "(ext)"} {
		p = binary.BigEndian.AppendUint32(p, uint32(len(f)))
		p = append(p, f...)
	}
	p = binary.BigEndian.AppendUint32(p, uint32(size))
	for _, sg := range segs {
		p = append(p, sg...)
	}
	return p
}

func litSeg(b []byte) []byte {
	return append(binary.BigEndian.AppendUint32([]byte{segLiteral}, uint32(len(b))), b...)
}

func copySeg(entry, off, n int) []byte {
	s := binary.BigEndian.AppendUint16([]byte{segCopy}, uint16(entry))
	s = binary.BigEndian.AppendUint32(s, uint32(off))
	return binary.BigEndian.AppendUint32(s, uint32(n))
}

// badChunkedResponses are getblks responses a client must reject, each
// for one fault of a chunked entry.
func badChunkedResponses(found []byte) map[string][][]byte {
	missing, deferred := []byte{entryMissing}, []byte{entryDeferred}
	noSize := chunkedPart(0)
	noSize = noSize[:len(noSize)-2]
	return map[string][][]byte{
		"forward":         {found, chunkedPart(10, copySeg(2, 0, 10)), found},
		"self":            {found, chunkedPart(10, copySeg(1, 0, 10))},
		"out of range":    {found, chunkedPart(10, copySeg(9, 0, 10))},
		"offset past end": {found, chunkedPart(20, copySeg(0, 290, 20))},
		"huge length":     {found, chunkedPart(-1, copySeg(0, 0, -1))},
		"into missing":    {missing, chunkedPart(10, copySeg(0, 0, 10))},
		"into deferred":   {deferred, chunkedPart(10, copySeg(0, 0, 10))},
		"into reference":  {found, encodeRef(0, ""), chunkedPart(10, copySeg(1, 0, 10))},
		"short of size":   {found, chunkedPart(11, copySeg(0, 0, 10))},
		"past size":       {found, chunkedPart(9, copySeg(0, 0, 5), litSeg([]byte("hello")))},
		"truncated lit":   {found, chunkedPart(10, litSeg([]byte("0123456789"))[:8])},
		"truncated copy":  {found, chunkedPart(10, copySeg(0, 0, 10)[:7])},
		"unknown segment": {found, chunkedPart(0, []byte{7})},
		"no size":         {found, noSize},
	}
}

// foundEntry is a found entry for a 300-byte block.
func foundEntry() []byte {
	return entryPart([]byte("y.vid"), []byte(core.MediumVideo.String()), []byte("(ext)"), bytes.Repeat([]byte("y"), 300))
}

// TestDecodeBlocksRejectsBadChunks: every fault a chunked entry can have
// — a copy forward, of itself, out of the response, past its source's
// end, of a missing, deferred or reference entry, segments short of or
// past the declared size, truncation, an unknown segment — fails the
// response.
func TestDecodeBlocksRejectsBadChunks(t *testing.T) {
	found := foundEntry()
	good := [][]byte{found, chunkedPart(13, copySeg(0, 100, 10), litSeg([]byte("abc")))}
	blocks, flags, err := decodeBlocks(good)
	if err != nil || flags[1] != entryChunked || string(blocks[1].Payload) != "yyyyyyyyyyabc" {
		t.Fatalf("good chunked entry: %v", err)
	}
	for name, resp := range badChunkedResponses(found) {
		if _, _, err := decodeBlocks(resp); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
