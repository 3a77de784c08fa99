package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/attr"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/edit"
	"repro/internal/media"
	"repro/internal/units"
)

// seedFrames captures the real wire traffic of the transport tests: one
// encoded frame per protocol exchange the test suite performs, v1 and
// v2. They seed the fuzz corpus so the fuzzers start from the shapes the
// protocol actually produces rather than from noise.
func seedFrames(tb testing.TB) [][]byte {
	tb.Helper()
	blk := media.CaptureAudio("voice.aud", 200, 8000, 440, 2)
	descText, err := media.EncodeDescriptor(blk.Descriptor)
	if err != nil {
		tb.Fatal(err)
	}
	u16 := func(v uint16) []byte { b := make([]byte, 2); binary.BigEndian.PutUint16(b, v); return b }
	u32 := func(v uint32) []byte { b := make([]byte, 4); binary.BigEndian.PutUint32(b, v); return b }
	u64 := func(v uint64) []byte { b := make([]byte, 8); binary.BigEndian.PutUint64(b, v); return b }

	var frames [][]byte
	addV1 := func(op byte, parts ...[]byte) {
		var buf bytes.Buffer
		if err := writeFrame(&buf, op, parts...); err != nil {
			tb.Fatal(err)
		}
		frames = append(frames, buf.Bytes())
	}
	addV2 := func(op byte, id uint32, parts ...[]byte) {
		var buf bytes.Buffer
		if err := writeFrameV2(&buf, op, id, parts...); err != nil {
			tb.Fatal(err)
		}
		frames = append(frames, buf.Bytes())
	}

	// v1 requests and responses, as the test suite exchanges them.
	addV1(opHello, []byte{protoVersion})
	addV1(opOK, []byte{protoVersion}, u16(defaultMaxInFlight), []byte{codec.FrameCodecFlate})
	addV1(opGetDoc, []byte("news"), []byte{byte(EncodingText)}, []byte{0})
	addV1(3, []byte("voice.aud")) // the retired single-block get, as an earlier client sends it
	addV1(opOK, []byte(blk.Name), []byte(blk.Medium.String()), []byte(descText), blk.Payload[:64])
	addV1(opGetBlks, []byte("anchor.vid"), []byte("voice.aud"), []byte("ghost"))
	addV1(opOK,
		entryPart([]byte(blk.Name), []byte(blk.Medium.String()), []byte(descText), blk.Payload[:32]),
		[]byte{entryMissing},
		[]byte{entryDeferred})
	addV1(opGetDescs, []byte("voice.aud"))
	addV1(opOK, entryPart([]byte(blk.Name), []byte(descText)))
	addV1(opErrNotFound, []byte(`getdoc: no document "ghost"`))
	addV1(opList)
	addV1(opGoodbye)

	// v2 exchanges: pipelined requests, busy rejection, a full stream.
	addV2(opGetDoc, 1, []byte("news"), []byte{byte(EncodingBinary)}, []byte{1})
	addV2(opGetBlkStream, 7, []byte("voice.aud"))
	addV2(opErrBusy, 9, []byte("busy: 32 requests in flight"))
	addV2(opErr, 3, []byte("unknown op 3"))
	addV2(opStreamHdr, 7, []byte(blk.Name), []byte(blk.Medium.String()), []byte(descText), u64(uint64(len(blk.Payload))))
	addV2(opStreamChunk, 7, u32(0), blk.Payload[:len(blk.Payload)/2])
	addV2(opStreamChunk, 7, u32(1), blk.Payload[len(blk.Payload)/2:])
	addV2(opStreamEnd, 7, u32(2))

	// Edge shapes for the per-part reader: a frame of no parts, and a
	// part whose length runs past what the frame's total has left.
	addV2(opOK, 12)
	body := append([]byte{opOK}, u32(13)...)
	body = append(append(append(body, u16(1)...), u32(1<<20)...), "abc"...)
	frames = append(frames, append(u32(uint32(len(body))), body...))
	return frames
}

// seedStreams builds whole stream transcripts — concatenated v2 frame
// sequences — for the reassembly fuzzer.
func seedStreams(tb testing.TB) [][]byte {
	tb.Helper()
	blk := media.CaptureAudio("voice.aud", 200, 8000, 440, 2)
	descText, err := media.EncodeDescriptor(blk.Descriptor)
	if err != nil {
		tb.Fatal(err)
	}
	u32 := func(v uint32) []byte { b := make([]byte, 4); binary.BigEndian.PutUint32(b, v); return b }
	u64 := func(v uint64) []byte { b := make([]byte, 8); binary.BigEndian.PutUint64(b, v); return b }
	hdr := [][]byte{[]byte(blk.Name), []byte(blk.Medium.String()), []byte(descText), u64(uint64(len(blk.Payload)))}

	stream := func(frames ...func(buf *bytes.Buffer)) []byte {
		var buf bytes.Buffer
		for _, f := range frames {
			f(&buf)
		}
		return buf.Bytes()
	}
	w := func(op byte, id uint32, parts ...[]byte) func(*bytes.Buffer) {
		return func(buf *bytes.Buffer) {
			if err := writeFrameV2(buf, op, id, parts...); err != nil {
				tb.Fatal(err)
			}
		}
	}
	half := len(blk.Payload) / 2
	return [][]byte{
		// A complete, healthy two-chunk stream.
		stream(
			w(opStreamHdr, 7, hdr...),
			w(opStreamChunk, 7, u32(0), blk.Payload[:half]),
			w(opStreamChunk, 7, u32(1), blk.Payload[half:]),
			w(opStreamEnd, 7, u32(2)),
		),
		// Truncated after the first chunk.
		stream(
			w(opStreamHdr, 7, hdr...),
			w(opStreamChunk, 7, u32(0), blk.Payload[:half]),
		),
		// Out-of-order chunk.
		stream(
			w(opStreamHdr, 7, hdr...),
			w(opStreamChunk, 7, u32(1), blk.Payload[:half]),
		),
		// Zero-size stream.
		stream(
			w(opStreamHdr, 7, []byte("empty"), []byte("image"), []byte(descText), u64(0)),
			w(opStreamEnd, 7, u32(0)),
		),
	}
}

// FuzzDecodeFrame throws arbitrary bytes at both frame decoders: they
// must never panic, and anything they accept must survive an
// encode-decode round trip unchanged. The per-part v2 reader is also
// held to the whole-body reference (readFrameV2Whole): both accept and
// reject the same bytes and yield equal parts, and no two parts it
// returns share a backing array.
func FuzzDecodeFrame(f *testing.F) {
	for _, frame := range seedFrames(f) {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if v1, err := readFrame(bytes.NewReader(data)); err == nil {
			var buf bytes.Buffer
			if err := writeFrame(&buf, v1.op, v1.parts...); err != nil {
				t.Fatalf("accepted v1 frame does not re-encode: %v", err)
			}
			again, err := readFrame(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("re-encoded v1 frame does not decode: %v", err)
			}
			if again.op != v1.op || !partsEqual(again.parts, v1.parts) {
				t.Fatalf("v1 round trip changed the frame: %v -> %v", v1, again)
			}
		}
		v2, err := readFrameV2(bytes.NewReader(data))
		ref, refErr := readFrameV2Whole(bytes.NewReader(data))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("per-part reader: %v; whole-body reader: %v", err, refErr)
		}
		if err == nil {
			if v2.op != ref.op || v2.id != ref.id || !partsEqual(v2.parts, ref.parts) {
				t.Fatalf("per-part reader decoded %v, whole-body reader %v", v2, ref)
			}
			if sharedBacking(v2.parts) {
				t.Fatal("two received parts share a backing array")
			}
			var buf bytes.Buffer
			if err := writeFrameV2(&buf, v2.op, v2.id, v2.parts...); err != nil {
				t.Fatalf("accepted v2 frame does not re-encode: %v", err)
			}
			again, err := readFrameV2(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("re-encoded v2 frame does not decode: %v", err)
			}
			if again.op != v2.op || again.id != v2.id || !partsEqual(again.parts, v2.parts) {
				t.Fatalf("v2 round trip changed the frame: %v -> %v", v2, again)
			}
		}
	})
}

func partsEqual(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// FuzzReassembleChunks feeds arbitrary v2 frame sequences through the
// stream reassembler: it must never panic, never allocate beyond the
// data actually received, and only ever produce a block whose payload
// length matches the declared size exactly.
func FuzzReassembleChunks(f *testing.F) {
	for _, transcript := range seedStreams(f) {
		f.Add(transcript)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var asm chunkAssembler
		for {
			frm, err := readFrameV2(r)
			if err != nil {
				return
			}
			switch frm.op {
			case opStreamHdr:
				if asm.begin(frm.parts) != nil {
					return
				}
			case opStreamChunk:
				if asm.chunk(frm.parts) != nil {
					return
				}
			case opStreamEnd:
				blk, err := asm.finish(frm.parts)
				if err == nil && int64(len(blk.Payload)) != asm.size {
					t.Fatalf("reassembled %d bytes, header declared %d", len(blk.Payload), asm.size)
				}
				return
			default:
				return
			}
		}
	})
}

// seedChangeFrames captures the v3 subscription traffic: opChange frames
// exactly as the fan-out hub emits them — a snapshot of the real fixture
// document, deltas carrying genuinely encoded change records, and every
// end reason the server produces — plus the malformed shapes the decoder
// must reject cleanly.
func seedChangeFrames(tb testing.TB) [][]byte {
	tb.Helper()
	d, _ := fixture(tb)
	snap, err := codec.EncodeBinary(d)
	if err != nil {
		tb.Fatal(err)
	}
	rec1, err := edit.RecordSetAttr("/intro", "duration", attr.Quantity(units.MS(400)))
	if err != nil {
		tb.Fatal(err)
	}
	rec2 := edit.RecordDelete("/label")
	recs := core.EncodeChangeRecords([]core.ChangeRecord{rec1, rec2})

	var frames [][]byte
	add := func(id uint32, parts ...[]byte) {
		var buf bytes.Buffer
		if err := writeFrameV2(&buf, opChange, id, parts...); err != nil {
			tb.Fatal(err)
		}
		frames = append(frames, buf.Bytes())
	}
	// The healthy shapes, built through the server's own part renderers.
	add(11, subEvent{kind: changeSnapshot, toGen: 0, doc: snap}.parts()...)
	add(11, subEvent{kind: changeDelta, fromGen: 0, toGen: 2, recs: recs}.parts()...)
	add(11, subEvent{kind: changeDelta, fromGen: 2, toGen: 3, recs: core.EncodeChangeRecords([]core.ChangeRecord{rec1})}.parts()...)
	for _, reason := range []string{endReasonUnsubscribed, shedSubSlow, shedSubsFull} {
		add(11, endParts(reason)...)
	}
	// The malformed shapes: the decoder must reject, never panic.
	add(11)                                              // no discriminator
	add(11, []byte{'X'}, u64be(0))                       // unknown discriminator
	add(11, []byte("SS"), u64be(0), snap)                // oversized discriminator
	add(11, []byte{changeSnapshot}, []byte{1, 2}, snap)  // truncated generation
	add(11, []byte{changeSnapshot}, u64be(0), snap[:16]) // truncated document
	add(11, []byte{changeDelta}, u64be(0), u64be(2))     // missing records part
	add(11, []byte{changeDelta}, u64be(0), u64be(2), []byte("not records"))
	add(11, []byte{changeEnd}) // missing reason
	return frames
}

// FuzzDecodeChangeFrame drives arbitrary bytes through the full
// subscription receive path — v2 frame decode, then the opChange event
// decoder: it must never panic, and any delta it accepts must carry
// records that survive an encode-decode round trip unchanged.
func FuzzDecodeChangeFrame(f *testing.F) {
	for _, frame := range seedChangeFrames(f) {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		frm, err := readFrameV2(bytes.NewReader(data))
		if err != nil || frm.op != opChange {
			return
		}
		ev, err := decodeSubEvent(frm.parts)
		if err != nil {
			return
		}
		switch ev.Kind {
		case SubSnapshot:
			if ev.Doc == nil {
				t.Fatal("accepted snapshot with nil document")
			}
		case SubDelta:
			again, err := core.DecodeChangeRecords(core.EncodeChangeRecords(ev.Records))
			if err != nil {
				t.Fatalf("accepted delta does not re-encode: %v", err)
			}
			if len(again) != len(ev.Records) {
				t.Fatalf("delta round trip changed the batch: %d -> %d records", len(ev.Records), len(again))
			}
		case SubEnd:
			// Any reason string is legal; nothing further to hold.
		default:
			t.Fatalf("decodeSubEvent returned unknown kind %d", ev.Kind)
		}
	})
}

// seedCompressedFrames builds opCompressed envelopes exactly as the v4
// frameSender emits them — compressible request and response bodies of
// assorted shapes — plus the malformed envelopes the decoder must
// reject: lying rawLen declarations, truncated deflate streams, nested
// envelopes.
func seedCompressedFrames(tb testing.TB) [][]byte {
	tb.Helper()
	u32 := func(v uint32) []byte { b := make([]byte, 4); binary.BigEndian.PutUint32(b, v); return b }
	text := bytes.Repeat([]byte("synchronized multimedia interchange "), 64)

	var frames [][]byte
	sent := func(op byte, id uint32, parts ...[]byte) {
		var buf bytes.Buffer
		s := newFrameSender(&buf)
		s.compress = true
		if _, err := s.send(frameV2{op: op, id: id, parts: parts}); err != nil {
			tb.Fatal(err)
		}
		if err := s.flush(); err != nil {
			tb.Fatal(err)
		}
		frames = append(frames, buf.Bytes())
	}
	// Healthy compressed shapes, through the real writer.
	sent(opOK, 3, []byte("story.txt"), []byte("text"), text, text)
	sent(opPutBlk, 9, []byte("story.txt"), []byte("text"), text[:100], text)
	sent(opGetBlks, 5, text[:600], text[:600], nil, text[:600])

	// Malformed envelopes, built by hand.
	raw := func(body []byte) []byte {
		var buf bytes.Buffer
		buf.Write(u32(uint32(len(body))))
		buf.Write(body)
		return buf.Bytes()
	}
	goodComp, ok := codec.CompressFrame(append(append([]byte{opOK, 0, 0, 0, 1, 0, 1}, u32(uint32(len(text)))...), text...))
	if !ok {
		tb.Fatal("seed body did not compress")
	}
	frames = append(frames,
		raw(append(append([]byte{opCompressed}, u32(1<<30)...), goodComp...)),      // overstated rawLen
		raw(append(append([]byte{opCompressed}, u32(4)...), goodComp...)),          // understated rawLen
		raw(append(append([]byte{opCompressed}, u32(64)...), goodComp[:4]...)),     // truncated deflate
		raw(append([]byte{opCompressed}, u32(64)...)),                              // empty deflate stream
		raw([]byte{opCompressed, 0, 0}),                                            // short of the rawLen field
		raw(append(append([]byte{opCompressed}, u32(uint32(len(text)))...), 1, 2)), // garbage deflate
	)
	// A nested envelope: compress a body whose first byte is opCompressed.
	nested := append([]byte{opCompressed}, bytes.Repeat([]byte{0}, 600)...)
	if comp, ok := codec.CompressFrame(nested); ok {
		frames = append(frames, raw(append(append([]byte{opCompressed}, u32(uint32(len(nested)))...), comp...)))
	}
	return frames
}

// FuzzDecodeCompressedFrame drives arbitrary bytes through the v2 frame
// decoder's opCompressed path: it must never panic, never inflate past
// the declared length, and anything it accepts must survive a re-encode
// through the compressing frameSender and decode back identical.
func FuzzDecodeCompressedFrame(f *testing.F) {
	for _, frame := range seedCompressedFrames(f) {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		frm, err := readFrameV2(bytes.NewReader(data))
		if err != nil {
			return
		}
		if frm.op == opCompressed {
			t.Fatal("decoder surfaced a raw opCompressed frame")
		}
		var buf bytes.Buffer
		s := newFrameSender(&buf)
		s.compress = true
		if _, err := s.send(frm); err != nil {
			t.Fatalf("accepted frame does not re-encode compressed: %v", err)
		}
		if err := s.flush(); err != nil {
			t.Fatal(err)
		}
		again, err := readFrameV2(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if again.op != frm.op || again.id != frm.id || !partsEqual(again.parts, frm.parts) {
			t.Fatalf("compressed round trip changed the frame: %v -> %v", frm, again)
		}
	})
}

// seedBlksEntries captures opGetBlks responses as v2 frames: the
// back-reference fixture's real answers (found, missing, deferred and
// back-reference entries, under a budget that defers and one that does
// not), plus one response per back-reference the client must reject —
// forward, to itself, out of range, to a missing and to a deferred
// entry — and a truncated one.
func seedBlksEntries(tb testing.TB) [][]byte {
	tb.Helper()
	store := media.NewStore()
	a, c := randomBlock("a.vid", 300, 41), randomBlock("c.vid", 2000, 42)
	store.Put(a)
	store.Put(a.WithName("b.vid"))
	store.Put(c)
	twin := media.NewBlock("twin.vid", a.Medium, a.Payload, attr.List{})
	srv := NewServer(twinBackend{NewRegistry(store), map[string]*media.Block{"twin.vid": twin}})
	frameOf := func(parts ...[]byte) []byte {
		var buf bytes.Buffer
		if err := writeFrameV2(&buf, opOK, 1, parts...); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	var seeds [][]byte
	req := [][]byte{[]byte("a.vid"), []byte("ghost"), []byte("c.vid"), []byte("b.vid"), []byte(a.ID), []byte("twin.vid")}
	old := batchBudget
	for _, budget := range []int{old, 1000} {
		batchBudget = budget
		resp := srv.handle(frame{op: opGetBlks, parts: req})
		whole := make([][]byte, len(resp.parts))
		for i, p := range resp.parts {
			whole[i] = append(bytes.Clone(p), tailAt(resp.tails, i)...)
		}
		seeds = append(seeds, frameOf(whole...))
	}
	batchBudget = old
	desc, err := a.DescriptorText()
	if err != nil {
		tb.Fatal(err)
	}
	found := entryPart([]byte(a.Name), []byte(a.Medium.String()), desc, a.Payload)
	missing, deferred := []byte{entryMissing}, []byte{entryDeferred}
	seeds = append(seeds,
		frameOf(encodeRef(1, ""), found),
		frameOf(found, encodeRef(1, "")),
		frameOf(found, encodeRef(7, "x.vid")),
		frameOf(missing, encodeRef(0, "")),
		frameOf(found, deferred, encodeRef(1, "")),
		frameOf(found, []byte{entryRef, 0}),
	)
	return seeds
}

// seedChunkedEntries returns opGetBlks response frames: a real
// one — a block whole, a near-duplicate and a near-duplicate of that as
// chunked entries, a repeat as a back-reference to a chunked entry — and
// one for each fault of badChunkedResponses.
func seedChunkedEntries(tb testing.TB) [][]byte {
	tb.Helper()
	a := randomBlock("a.vid", 12<<10, 46) // three chunks
	b := edited("b.vid", a, 12<<10-100)
	c := edited("c.vid", b, 0)
	store := media.NewStore()
	for _, blk := range []*media.Block{a, b, c, b.WithName("b2.vid")} {
		store.Put(blk)
	}
	resp := NewServer(NewRegistry(store)).handle(frame{op: opGetBlks,
		parts: keysOf("a.vid", "ghost", "b.vid", "c.vid", "b2.vid")})
	whole := wholeParts(resp)
	if whole[2][0] != entryChunked || whole[3][0] != entryChunked {
		tb.Fatal("the seed's near-duplicates did not travel chunked")
	}
	frameOf := func(parts ...[]byte) []byte {
		var buf bytes.Buffer
		if err := writeFrameV2(&buf, opOK, 1, parts...); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	seeds := [][]byte{frameOf(whole...)}
	bad := badChunkedResponses(foundEntry())
	names := make([]string, 0, len(bad))
	for name := range bad {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		seeds = append(seeds, frameOf(bad[name]...))
	}
	return seeds
}

// FuzzGetBlksEntries decodes arbitrary opGetBlks responses: the
// client must resolve one, with every block named by the hash of bytes
// that arrived in that response, or reject it without panicking. A
// response it resolves holds no back-reference or copy that points
// forward, at itself, out of range, or at an entry that did not carry
// its bytes, and each chunked entry's payload is its literal bytes and
// copies, in order.
func FuzzGetBlksEntries(f *testing.F) {
	for _, seed := range append(seedBlksEntries(f), seedChunkedEntries(f)...) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		frm, err := readFrameV2(bytes.NewReader(data))
		if err != nil {
			return
		}
		blocks, flags, err := decodeBlocks(frm.parts)
		if err != nil {
			return
		}
		carried := func(i, j int) bool {
			return j < i && (flags[j] == entryFound || flags[j] == entryChunked)
		}
		for i, part := range frm.parts {
			blk := blocks[i]
			switch flags[i] {
			case entryMissing, entryDeferred:
				if blk != nil {
					t.Fatalf("entry %d: flag %d carries a block", i, flags[i])
				}
				continue
			case entryRef:
				// Entry j's own check covers the bytes.
				j, _, err := decodeRef(part)
				if err != nil || !carried(i, j) {
					t.Fatalf("entry %d resolved a back-reference to entry %d (%v)", i, j, err)
				}
				if blk.ID != blocks[j].ID || len(blk.Payload) > 0 && &blk.Payload[0] != &blocks[j].Payload[0] {
					t.Fatalf("entry %d: back-reference resolved to a copy or to other bytes", i)
				}
			case entryFound:
				if !bytes.HasSuffix(part, blk.Payload) {
					t.Fatalf("entry %d: payload did not arrive in its entry", i)
				}
			case entryChunked:
				_, _, segs, err := decodeChunked(part)
				if err != nil {
					t.Fatalf("entry %d: resolved an undecodable chunked entry: %v", i, err)
				}
				var spelled []byte
				for _, sg := range segs {
					src := part
					if sg.entry >= 0 {
						if !carried(i, sg.entry) {
							t.Fatalf("entry %d resolved a copy of entry %d", i, sg.entry)
						}
						src = blocks[sg.entry].Payload
					}
					spelled = append(spelled, src[sg.off:sg.off+sg.n]...)
				}
				if !bytes.Equal(spelled, blk.Payload) {
					t.Fatalf("entry %d: payload is not its segments' bytes", i)
				}
			default:
				t.Fatalf("entry %d: flag %d", i, flags[i])
			}
			if blk.ID != media.ContentAddress(blk.Medium, blk.Payload) {
				t.Fatalf("entry %d: block %.12s is not the hash of its bytes", i, blk.ID)
			}
		}
	})
}

// TestWriteFuzzSeedCorpus materializes the captured frames as corpus
// files under testdata/fuzz when UPDATE_FUZZ_CORPUS=1, so the committed
// corpus stays derivable from the transport tests' real traffic.
func TestWriteFuzzSeedCorpus(t *testing.T) {
	if os.Getenv("UPDATE_FUZZ_CORPUS") == "" {
		t.Skip("set UPDATE_FUZZ_CORPUS=1 to regenerate the committed fuzz corpus")
	}
	write := func(target string, seeds [][]byte) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
			name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	write("FuzzDecodeFrame", seedFrames(t))
	write("FuzzReassembleChunks", seedStreams(t))
	write("FuzzDecodeChangeFrame", seedChangeFrames(t))
	write("FuzzDecodeCompressedFrame", seedCompressedFrames(t))
	write("FuzzGetBlksEntries", append(seedBlksEntries(t), seedChunkedEntries(t)...))
}
