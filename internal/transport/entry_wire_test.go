package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/attr"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/media"
)

// entryPart is a found batch entry as one buffer — the flag, then every
// field length-prefixed — built independently of encodeEntry, whose
// head and tail must concatenate to exactly these bytes.
func entryPart(fields ...[]byte) []byte {
	out := []byte{entryFound}
	for _, f := range fields {
		out = binary.BigEndian.AppendUint32(out, uint32(len(f)))
		out = append(out, f...)
	}
	return out
}

// readFrameV2Whole is the whole-body reader the per-part readFrameV2
// replaced: the body (inflated, for an envelope) lands in one buffer and
// parseFrameV2Body slices the parts out of it. It is the reference the
// differential fuzz holds readFrameV2 to.
func readFrameV2Whole(r io.Reader) (frameV2, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return frameV2{}, err
	}
	total := binary.BigEndian.Uint32(lenBuf[:])
	if total < 5 || total > maxFrameSize {
		return frameV2{}, fmt.Errorf("transport: v2 frame length %d out of range", total)
	}
	body := make([]byte, total)
	if _, err := io.ReadFull(r, body); err != nil {
		return frameV2{}, err
	}
	if body[0] == opCompressed {
		raw, err := codec.DecompressFrame(body[5:], int(binary.BigEndian.Uint32(body[1:5])), maxFrameSize)
		if err != nil {
			return frameV2{}, err
		}
		if len(raw) > 0 && raw[0] == opCompressed {
			return frameV2{}, fmt.Errorf("transport: nested compressed frame")
		}
		body = raw
	}
	return parseFrameV2Body(body)
}

// parseFrameV2Body decodes a plain v2 frame body (everything after the
// totalLen prefix, after any decompression), parts sharing the body.
func parseFrameV2Body(body []byte) (frameV2, error) {
	if len(body) < 7 {
		return frameV2{}, fmt.Errorf("transport: v2 frame body of %d bytes too short", len(body))
	}
	parts, err := parseParts(body, 7, int(binary.BigEndian.Uint16(body[5:7])))
	if err != nil {
		return frameV2{}, err
	}
	return frameV2{op: body[0], id: binary.BigEndian.Uint32(body[1:5]), parts: parts}, nil
}

// sharedBacking reports whether any two parts reach into one backing
// array (over their full capacity, which is what a kept part pins).
func sharedBacking(parts [][]byte) bool {
	for i, a := range parts {
		for _, b := range parts[i+1:] {
			if cap(a) == 0 || cap(b) == 0 {
				continue
			}
			as, bs := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
			if as < bs+uintptr(cap(b)) && bs < as+uintptr(cap(a)) {
				return true
			}
		}
	}
	return false
}

// TestEncodeEntryConcatenatesToWholePart: head then tail is the
// single-buffer entry, for every field count the ops use and for empty
// fields, including an empty last field.
func TestEncodeEntryConcatenatesToWholePart(t *testing.T) {
	for _, fields := range [][][]byte{
		{[]byte("chunk bytes")},
		{{}},
		{[]byte("a.img"), []byte("(ext)")},
		{[]byte("a.img"), []byte("image"), []byte("(ext)"), []byte("payload")},
		{[]byte("z.img"), []byte("image"), {}, {}},
	} {
		head, tail := encodeEntry(fields...)
		if got, want := append(append([]byte(nil), head...), tail...), entryPart(fields...); !bytes.Equal(got, want) {
			t.Errorf("%q: head+tail %x, want %x", fields, got, want)
		}
		if len(tail) > 0 && &tail[0] != &fields[len(fields)-1][0] {
			t.Errorf("%q: the tail is a copy of the last field", fields)
		}
	}
}

// TestBatchResponsesMatchWholeEntries is the wire golden for the
// head-and-tail entries: a getblks and getdescs response — found,
// missing, deferred and zero-length-payload entries — goes on the wire
// byte for byte as the frame of whole entries would, on the buffered
// path, the vectored path and inside the compressed envelope.
func TestBatchResponsesMatchWholeEntries(t *testing.T) {
	oldBudget, oldThreshold := batchBudget, vectoredThreshold
	t.Cleanup(func() { batchBudget, vectoredThreshold = oldBudget, oldThreshold })
	batchBudget = 120 << 10

	store := media.NewStore()
	small := media.CaptureImage("small.img", 16, 16, 3)
	empty := media.NewBlock("empty.img", core.MediumImage, []byte{}, attr.List{})
	big := randomBlock("big.vid", 80<<10, 5)           // inlined: fits the budget
	deferred := randomBlock("deferred.vid", 80<<10, 6) // past the budget after small and big
	text := textBlockV4("story.txt", 20<<10)           // compressible
	for _, b := range []*media.Block{small, empty, big, deferred, text} {
		store.Put(b)
	}
	srv := NewServer(NewRegistry(store))
	desc := func(b *media.Block) []byte {
		text, err := media.EncodeDescriptor(b.Descriptor)
		if err != nil {
			t.Fatal(err)
		}
		return text
	}
	blkEntry := func(b *media.Block) []byte {
		return entryPart([]byte(b.Name), []byte(b.Medium.String()), desc(b), b.Payload)
	}
	descEntry := func(b *media.Block) []byte { return entryPart([]byte(b.Name), desc(b)) }
	missing, deferredFlag := []byte{entryMissing}, []byte{entryDeferred}

	names := func(bs ...string) [][]byte {
		out := make([][]byte, len(bs))
		for i, b := range bs {
			out[i] = []byte(b)
		}
		return out
	}
	// compresses says whether the body deflates smaller, so that the
	// compressed mode really ships an envelope rather than its fallback.
	cases := []struct {
		name       string
		op         byte
		req        [][]byte
		want       [][]byte
		compresses bool
	}{
		{"getblks", opGetBlks,
			names("small.img", "ghost", "empty.img", "big.vid", "deferred.vid", "story.txt"),
			[][]byte{blkEntry(small), missing, blkEntry(empty), blkEntry(big), deferredFlag, blkEntry(text)}, true},
		{"getblks-text", opGetBlks, names("empty.img", "story.txt", "ghost", "small.img"),
			[][]byte{blkEntry(empty), blkEntry(text), missing, blkEntry(small)}, true},
		{"getdescs", opGetDescs, names("small.img", "ghost", "empty.img", "story.txt", "big.vid"),
			[][]byte{descEntry(small), missing, descEntry(empty), descEntry(text), descEntry(big)}, false},
	}
	for _, tc := range cases {
		resp := srv.handle(frame{op: tc.op, parts: tc.req})
		if resp.op != opOK {
			t.Fatalf("%s: op %d (%q)", tc.name, resp.op, resp.parts)
		}
		var plain bytes.Buffer
		if err := writeFrameV2(&plain, opOK, 42, tc.want...); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []struct {
			name      string
			threshold int
			compress  bool
		}{
			{"buffered", 1 << 30, false},
			{"vectored", 1, false},
			{"compressed", 1 << 30, true},
		} {
			vectoredThreshold = mode.threshold
			var got bytes.Buffer
			s := newFrameSender(&got)
			s.compress = mode.compress
			if _, err := s.send(frameV2{op: resp.op, id: 42, parts: resp.parts, tails: resp.tails}); err != nil {
				t.Fatal(err)
			}
			if err := s.flush(); err != nil {
				t.Fatal(err)
			}
			want := plain.Bytes()
			if mode.compress {
				comp, ok := codec.CompressFrame(want[4:])
				if ok != tc.compresses {
					t.Fatalf("%s: body compresses = %v, want %v", tc.name, ok, tc.compresses)
				}
				if ok {
					env := binary.BigEndian.AppendUint32(nil, uint32(1+4+len(comp)))
					env = append(env, opCompressed)
					env = binary.BigEndian.AppendUint32(env, uint32(len(want)-4))
					want = append(env, comp...)
				}
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s/%s: %d wire bytes differ from the whole-entry frame's %d", tc.name, mode.name, got.Len(), len(want))
			}
		}
	}
}

// allocatedPerRun reports the bytes f allocates per call, by the
// TotalAlloc delta over runs calls after one warm-up call.
func allocatedPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestGetBlksServesThePayloadUncopied: answering a getblks for a 1 MiB
// block and writing the response allocates only the entry's head and
// framing, never a payload-sized buffer.
func TestGetBlksServesThePayloadUncopied(t *testing.T) {
	const size = 1 << 20
	store := media.NewStore()
	store.Put(randomBlock("big.vid", size, 11))
	srv := NewServer(NewRegistry(store))
	s := newFrameSender(io.Discard)
	req := frame{op: opGetBlks, parts: [][]byte{[]byte("big.vid")}}
	perOp := allocatedPerRun(20, func() {
		resp := srv.handle(req)
		if _, err := s.send(frameV2{op: resp.op, id: 1, parts: resp.parts, tails: resp.tails}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("getblks of a %d-byte block: %.0f bytes allocated", size, perOp)
	if perOp > 16<<10 {
		t.Errorf("getblks of a %d-byte block allocates %.0f bytes; want at most 16 KiB", size, perOp)
	}
}

// TestGetBlocksAllocatesOnePayload: a client fetching a 1 MiB block in a
// batch allocates about one payload — the received entry part the block
// keeps — not a frame body plus a copy. Server and client share the
// process, so the count covers both ends.
func TestGetBlocksAllocatesOnePayload(t *testing.T) {
	const size = 1 << 20
	store := media.NewStore()
	blk := randomBlock("big.vid", size, 12)
	store.Put(blk)
	addr, _ := startServerV4(t, store, false)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	names := []string{"big.vid"}
	perOp := allocatedPerRun(10, func() {
		got, err := c.GetBlocks(ctx, names)
		if err != nil || got[0] == nil || got[0].ID != blk.ID {
			t.Fatalf("GetBlocks: %v", err)
		}
	})
	t.Logf("GetBlocks of a %d-byte block: %.0f bytes allocated (%.2fx the payload)", size, perOp, perOp/size)
	if perOp > 1.25*size {
		t.Errorf("GetBlocks of a %d-byte block allocates %.0f bytes, %.2fx the payload; want at most 1.25x", size, perOp, perOp/size)
	}
}

// TestReceivedPartsOwnTheirBuffers: every part readFrameV2 returns — of
// a plain frame and of an inflated envelope — is its own allocation,
// and a fetched block pins its own entry, not the batch frame.
func TestReceivedPartsOwnTheirBuffers(t *testing.T) {
	parts := [][]byte{[]byte("a"), {}, bytes.Repeat([]byte("cmif "), 200), []byte("tail")}
	for _, compress := range []bool{false, true} {
		var buf bytes.Buffer
		s := newFrameSender(&buf)
		s.compress = compress
		if _, err := s.send(frameV2{op: opOK, id: 3, parts: parts}); err != nil {
			t.Fatal(err)
		}
		if err := s.flush(); err != nil {
			t.Fatal(err)
		}
		if compress && buf.Bytes()[4] != opCompressed {
			t.Fatal("the frame did not ship compressed")
		}
		f, err := readFrameV2(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !partsEqual(f.parts, parts) {
			t.Fatalf("compress=%v: parts changed in transit", compress)
		}
		if sharedBacking(f.parts) {
			t.Errorf("compress=%v: received parts share a backing array", compress)
		}
		for i, p := range f.parts {
			if cap(p) != len(p) {
				t.Errorf("compress=%v: part %d has %d bytes of spare capacity", compress, i, cap(p)-len(p))
			}
		}
	}

	// Through a real batch: each block's payload lies inside its own
	// entry part, which is no bigger than the payload plus its head.
	store := media.NewStore()
	a, b := randomBlock("a.vid", 8<<10, 1), randomBlock("b.vid", 8<<10, 2)
	store.Put(a)
	store.Put(b)
	addr, _ := startServerV4(t, store, false)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.GetBlocks(context.Background(), []string{"a.vid", "b.vid"})
	if err != nil {
		t.Fatal(err)
	}
	if sharedBacking([][]byte{got[0].Payload, got[1].Payload}) {
		t.Error("two fetched blocks share one backing array")
	}
	for _, blk := range got {
		if cap(blk.Payload) != len(blk.Payload) {
			t.Errorf("%s: payload has spare capacity %d", blk.Name, cap(blk.Payload)-len(blk.Payload))
		}
	}
}
