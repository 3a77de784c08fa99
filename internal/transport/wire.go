package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/codec"
)

// Wire framing: every message is
//
//	u32 totalLen | u8 op | u16 partCount | (u32 len | bytes)*
//
// with all integers big-endian. totalLen covers everything after itself.
const (
	maxFrameSize = 64 << 20 // 64 MiB: generous for inlined documents
	maxParts     = 64
)

// Operation codes.
const (
	opGetDoc byte = 1
	opPutDoc byte = 2
	// Byte 3 is retired (the single-block get); never reuse it.
	opList   byte = 4
	opPutBlk byte = 5
	// Byte 7 is retired (getblks without back-reference or chunked
	// entries); never reuse it.
	//
	// opGetDescs is the batched descriptor multi-get: like opGetBlks but
	// each found entry carries only the descriptor text, not the payload —
	// the paper's "relatively small clusters of data (the attributes)".
	opGetDescs byte = 8
	// opHello settles the protocol version. It is the first frame on
	// every connection, in v1 framing: request [maxVersion], response
	// opOK [protoVersion, maxInFlight(u16), codec(1)]. A hello offering
	// less than protoVersion — or any peer that opens with something
	// else — gets a v1-framed opErr and the connection closes.
	opHello byte = 9
	// opGetBlkStream fetches one block as a chunked v2 stream: the
	// response is a sequence of frames sharing the request ID —
	// opStreamHdr, then zero or more opStreamChunk, then opStreamEnd.
	opGetBlkStream byte = 10
	// opSubscribe watches a document: request [name] or [name, subtree];
	// the response is an open-ended sequence of opChange frames sharing
	// the request ID — a snapshot first, then ordered deltas — until
	// unsubscribe, shed or disconnect. With the optional subtree part
	// (an absolute node path), deltas carry only the change records
	// affecting that subtree or its ancestors; snapshots stay whole and
	// generations still advance per server-side edit, so filtered deltas
	// may be empty.
	opSubscribe byte = 11
	// opUnsubscribe ends a subscription: request [subID(u32)] naming the
	// opSubscribe request's ID; response opOK []. Idempotent — an already
	// ended subscription answers opOK too.
	opUnsubscribe byte = 12
	// opSubmitEdit applies an ordered edit batch to a document: request
	// [name, records] (core.EncodeChangeRecords); response opOK
	// [newGen(u64)]. Rejected edits answer opErr with a "conflict:"
	// message — the submitter refetches and retries.
	opSubmitEdit byte = 13
	// opGossip exchanges cluster membership views: request [view], the
	// sender's encoded member table; response opOK [view], the
	// receiver's table after merging. Only meaningful against a cluster
	// node (a Backend with PeerOps); others answer opErr. A client may
	// send an empty view to read membership without asserting any.
	opGossip byte = 14
	// opReplicate ships a batch of framed durable WAL records from a
	// key's primary to a replica: request [frames] (concatenated
	// length+CRC framed records, exactly the bytes the primary appended
	// to its own log); response opOK []. The replica verifies, appends
	// and applies them — the same path crash recovery replays.
	opReplicate byte = 15
	// opResync pulls a chunk of a peer's full state as WAL records for
	// rejoin catch-up: request [cursor] ("" starts); response opOK
	// [frames, nextCursor], where an empty nextCursor ends the walk.
	opResync byte = 16
	// Bytes 17 and 18 are retired (the chunk-dedupe fetch), and so is 19
	// (getblks with back-references but no chunked entries); never reuse
	// them.
	//
	// opGetBlks is the batched block multi-get: request parts are names
	// (or content addresses), the response carries one entry part per
	// requested name, in request order (see encodeEntry). An entry may
	// answer a name whose content an earlier entry of the same response
	// inlined with a reference to that entry instead of a second payload
	// (entryRef), and may carry a block as segments, each either literal
	// bytes or a copy of bytes an earlier entry of the same response
	// carried (entryChunked).
	opGetBlks byte = 20
	opOK      byte = 128
	// opStreamHdr opens a streamed block response: parts are
	// [name, medium, descriptor, payloadSize(u64)].
	opStreamHdr byte = 129
	// opStreamChunk carries one payload slice: parts are
	// [seq(u32), bytes]; seq starts at 0 and increments by 1.
	opStreamChunk byte = 130
	// opStreamEnd closes a streamed response: parts are [chunkCount(u32)],
	// letting the client verify nothing was dropped.
	opStreamEnd byte = 131
	// opChange is a server-push subscription frame, sharing the
	// opSubscribe request's ID. parts[0] is a one-byte discriminator:
	// changeSnapshot [gen(u64), doc], changeDelta [fromGen(u64),
	// toGen(u64), records] or changeEnd [reason].
	opChange byte = 132
	// opCompressed is the envelope marker for a deflated v2 frame:
	//
	//	u32 totalLen | u8 opCompressed | u32 rawLen | deflateBytes
	//
	// where inflating deflateBytes yields exactly rawLen bytes of an
	// ordinary v2 frame body (op | reqID | partCount | parts), which is
	// then parsed as usual. Compression sits above CRC/framing: WAL and
	// replication record bytes inside parts are unchanged. rawLen is
	// bounded by maxFrameSize before inflation and a nested opCompressed
	// is rejected. Senders only emit it on v2 mux connections whose hello
	// negotiated compression.
	opCompressed byte = 192
	// Byte 252 is retired (the single-block get's too-large answer);
	// never reuse it.
	//
	// opErrBusy is the per-connection backpressure rejection: the server
	// already has its maximum number of requests in flight on this
	// connection and refuses to queue more.
	opErrBusy byte = 253
	// opErrNotFound distinguishes "no such document/block" from other
	// failures so clients can surface a typed not-found error.
	opErrNotFound byte = 254
	opErr         byte = 255
	opGoodbye     byte = 6
)

// protoVersion is the one protocol version this build speaks: pipelined
// requests multiplexed over one connection (frames carry a request ID),
// chunked block streaming, document subscriptions with multi-writer
// edit submission and compressed frames (opCompressed, switched on by
// the hello's codec part). Versions 1 to 3 are retired: only v1's
// framing survives, for the hello.
const protoVersion = 4

// defaultMaxInFlight bounds how many requests the server processes
// concurrently per connection; requests past the bound are rejected
// with opErrBusy. The server advertises its bound in the hello response
// so well-behaved clients queue locally instead of being rejected.
const defaultMaxInFlight = 32

// streamChunkSize is how many payload bytes each opStreamChunk carries.
// A variable so tests can exercise multi-chunk reassembly with small
// blocks.
var streamChunkSize = 1 << 20

// maxStreamBytes caps the total payload size a streamed block transfer
// may declare, protecting clients from a malicious or corrupt size header.
const maxStreamBytes = int64(1) << 31

// maxBatch is the largest multi-get a single frame carries: one request
// part (and one response entry) per name. Clients chunk larger batches.
const maxBatch = maxParts

// listScopeLocal is the optional opList request part restricting the
// listing to locally held documents. Cluster nodes answering a plain
// opList merge every peer's local listing; the merge queries peers with
// this scope so the fan-out cannot recurse. Servers that predate the
// scope ignore request parts, so sending it is always safe.
var listScopeLocal = []byte("local")

// Batched responses pack each entry into a single frame part, so a batch
// of N names always answers with exactly N parts regardless of how many
// fields an entry has:
//
//	u8 flag | (u32 fieldLen | fieldBytes)*
//
// flag=0 means the name resolved to nothing (the batch itself still
// succeeds: partial results are the point of batching), flag=1 means the
// fields follow, and flag=2 means the block exists but inlining it would
// have pushed the response past maxFrameSize — the client re-fetches
// deferred entries with single-item ops. Flags 0 and 2 carry no fields.
//
// flag=3 is a back-reference: the
// block is the one an earlier found entry of the same response inlined
// (same content address, medium and descriptor), so no payload follows:
//
//	u8 3 | u16 index | name
//
// index is the earlier entry's position in the response; name, when not
// empty, is the block's name if it differs from that entry's.
//
// flag=4 is a chunked entry: a
// found block whose payload is spelled as segments, each either literal
// bytes or a copy of bytes an earlier found entry (flag 1 or 4) of the
// same response carried:
//
//	u8 4 | (u32 fieldLen | fieldBytes)×3 | u32 size | segment*
//	segment: u8 0 | u32 n | n bytes                 (literal)
//	       | u8 1 | u16 index | u32 offset | u32 n  (copy)
//
// The three fields are name, medium and descriptor, as in a found
// entry; size is the payload length the segments must add up to.
const (
	entryMissing  byte = 0
	entryFound    byte = 1
	entryDeferred byte = 2
	entryRef      byte = 3
	entryChunked  byte = 4
)

// Segment kinds of a chunked entry.
const (
	segLiteral byte = 0
	segCopy    byte = 1
)

// segment is one run of a chunked entry's payload: n bytes at off in
// the entry's own part (a literal, entry < 0) or in the payload of the
// entry at index entry (a copy).
type segment struct {
	entry, off, n int
}

// batchBudget caps the payload bytes a batched response inlines, leaving
// headroom inside maxFrameSize for frame/part/field framing and the
// non-payload fields of up to maxParts entries. A variable so tests can
// exercise the deferral path with small blocks.
var batchBudget = maxFrameSize - (1 << 20)

// encodeEntry packs a found entry into one response part, returned as a
// head and a tail that go on the wire back to back (frame.tails): the
// head holds the flag, every field's length prefix and every field but
// the last; the tail is the last field itself, uncopied — for a block,
// the store's own payload.
func encodeEntry(fields ...[]byte) (head, tail []byte) {
	last := len(fields) - 1
	n := 1 + 4*len(fields)
	for _, f := range fields[:last] {
		n += len(f)
	}
	head = make([]byte, 1, n)
	head[0] = entryFound
	for i, f := range fields {
		head = binary.BigEndian.AppendUint32(head, uint32(len(f)))
		if i < last {
			head = append(head, f...)
		}
	}
	return head, fields[last]
}

// oneTail is a part whose tail is one slice, in frame.tails' form.
func oneTail(head, tail []byte) ([]byte, [][]byte) { return head, [][]byte{tail} }

// encodeChunked packs a chunked entry for a block with the given name,
// medium and descriptor fields whose payload segs spell, returned like
// encodeEntry's: the head holds everything up to the first literal's
// bytes, and the tail alternates the literal bytes — subslices of
// payload, uncopied — with the segment headers between them.
func encodeChunked(fields [][]byte, payload []byte, segs []segment) (head []byte, tail [][]byte) {
	n := 1 + 4
	for _, f := range fields {
		n += 4 + len(f)
	}
	for _, sg := range segs {
		if sg.entry < 0 {
			n += 1 + 4
		} else {
			n += 1 + 2 + 4 + 4
		}
	}
	// Sized once, so the ranges already cut from meta never move.
	meta := make([]byte, 1, n)
	meta[0] = entryChunked
	for _, f := range fields {
		meta = binary.BigEndian.AppendUint32(meta, uint32(len(f)))
		meta = append(meta, f...)
	}
	meta = binary.BigEndian.AppendUint32(meta, uint32(len(payload)))
	prev := 0
	for _, sg := range segs {
		if sg.entry >= 0 {
			meta = append(meta, segCopy)
			meta = binary.BigEndian.AppendUint16(meta, uint16(sg.entry))
			meta = binary.BigEndian.AppendUint32(meta, uint32(sg.off))
			meta = binary.BigEndian.AppendUint32(meta, uint32(sg.n))
			continue
		}
		meta = append(meta, segLiteral)
		meta = binary.BigEndian.AppendUint32(meta, uint32(sg.n))
		if head == nil {
			head = meta[prev:]
		} else {
			tail = append(tail, meta[prev:])
		}
		tail = append(tail, payload[sg.off:sg.off+sg.n])
		prev = len(meta)
	}
	if head == nil {
		return meta, nil
	}
	if prev < len(meta) {
		tail = append(tail, meta[prev:])
	}
	return head, tail
}

// decodeChunked unpacks a chunked entry: its name, medium and
// descriptor fields, its payload size and its segments, a literal's
// offset counted in part. It checks the layout and that the segments
// add up to size, not what a copy points at.
func decodeChunked(part []byte) (fields [][]byte, size int, segs []segment, err error) {
	if len(part) < 1 || part[0] != entryChunked {
		return nil, 0, nil, fmt.Errorf("transport: malformed chunked entry")
	}
	off := 1
	u32 := func() (int, bool) {
		if off+4 > len(part) {
			return 0, false
		}
		v := int(binary.BigEndian.Uint32(part[off:]))
		off += 4
		return v, v >= 0 // an int of 32 bits cannot hold every u32
	}
	for i := 0; i < 3; i++ {
		n, ok := u32()
		if !ok || n > len(part)-off {
			return nil, 0, nil, fmt.Errorf("transport: truncated chunked entry field")
		}
		fields = append(fields, part[off:off+n])
		off += n
	}
	size, ok := u32()
	if !ok {
		return nil, 0, nil, fmt.Errorf("transport: truncated chunked entry size")
	}
	total := 0
	for off < len(part) {
		kind := part[off]
		off++
		var sg segment
		switch kind {
		case segLiteral:
			n, ok := u32()
			if !ok || n > len(part)-off {
				return nil, 0, nil, fmt.Errorf("transport: truncated chunked entry literal")
			}
			sg = segment{entry: -1, off: off, n: n}
			off += n
		case segCopy:
			if off+2 > len(part) {
				return nil, 0, nil, fmt.Errorf("transport: truncated chunked entry copy")
			}
			sg.entry = int(binary.BigEndian.Uint16(part[off:]))
			off += 2
			var ok1, ok2 bool
			sg.off, ok1 = u32()
			sg.n, ok2 = u32()
			if !ok1 || !ok2 {
				return nil, 0, nil, fmt.Errorf("transport: truncated chunked entry copy")
			}
		default:
			return nil, 0, nil, fmt.Errorf("transport: unknown chunked entry segment kind %d", kind)
		}
		if total += sg.n; total > size {
			return nil, 0, nil, fmt.Errorf("transport: chunked entry segments exceed its size %d", size)
		}
		segs = append(segs, sg)
	}
	if total != size {
		return nil, 0, nil, fmt.Errorf("transport: chunked entry segments add up to %d, not its size %d", total, size)
	}
	return fields, size, segs, nil
}

// encodeRef packs a back-reference to entry index, naming the block when
// name is not empty.
func encodeRef(index int, name string) []byte {
	ref := binary.BigEndian.AppendUint16(make([]byte, 1, 3+len(name)), uint16(index))
	ref[0] = entryRef
	return append(ref, name...)
}

// decodeRef unpacks a back-reference entry.
func decodeRef(part []byte) (index int, name []byte, err error) {
	if len(part) < 3 || part[0] != entryRef {
		return 0, nil, fmt.Errorf("transport: malformed back-reference entry")
	}
	return int(binary.BigEndian.Uint16(part[1:3])), part[3:], nil
}

// decodeEntry unpacks one batched-response part into exactly nFields
// fields; flag distinguishes found (fields valid), missing and deferred
// entries.
func decodeEntry(part []byte, nFields int) (fields [][]byte, flag byte, err error) {
	if len(part) < 1 {
		return nil, entryMissing, fmt.Errorf("transport: empty batch entry")
	}
	if part[0] == entryMissing || part[0] == entryDeferred {
		if len(part) != 1 {
			return nil, part[0], fmt.Errorf("transport: %d trailing bytes in fieldless entry", len(part)-1)
		}
		return nil, part[0], nil
	}
	if part[0] != entryFound {
		return nil, part[0], fmt.Errorf("transport: unknown batch entry flag %d", part[0])
	}
	off := 1
	fields = make([][]byte, 0, nFields)
	for i := 0; i < nFields; i++ {
		if off+4 > len(part) {
			return nil, entryFound, fmt.Errorf("transport: truncated batch entry field header")
		}
		n := int(binary.BigEndian.Uint32(part[off : off+4]))
		off += 4
		if n < 0 || off+n > len(part) {
			return nil, entryFound, fmt.Errorf("transport: batch entry field length %d exceeds part", n)
		}
		fields = append(fields, part[off:off+n])
		off += n
	}
	if off != len(part) {
		return nil, entryFound, fmt.Errorf("transport: %d trailing bytes in batch entry", len(part)-off)
	}
	return fields, entryFound, nil
}

// frame is one v1-framed message: the hello exchange, the request shape
// handlers see once the request ID is peeled off, and the response they
// build.
type frame struct {
	op    byte
	parts [][]byte
	// tails, on a response being built, is nil or holds one tail per
	// part: the slices of tails[i] go on the wire right after parts[i],
	// in order, as the rest of that part (see encodeEntry). A decoded
	// frame carries none — a received part is one buffer.
	tails [][][]byte
}

// tailOf returns part i's tail, if tails has one.
func tailOf(tails [][][]byte, i int) [][]byte {
	if tails == nil {
		return nil
	}
	return tails[i]
}

// partLen is the on-wire length of a part and its tail.
func partLen(p []byte, tail [][]byte) int {
	n := len(p)
	for _, t := range tail {
		n += len(t)
	}
	return n
}

// writeFrame encodes and sends a frame.
func writeFrame(w io.Writer, op byte, parts ...[]byte) error {
	if len(parts) > maxParts {
		return fmt.Errorf("transport: %d parts exceeds limit", len(parts))
	}
	total := 1 + 2
	for _, p := range parts {
		total += 4 + len(p)
	}
	if total > maxFrameSize {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", total)
	}
	hdr := make([]byte, 4+1+2)
	binary.BigEndian.PutUint32(hdr[0:4], uint32(total))
	hdr[4] = op
	binary.BigEndian.PutUint16(hdr[5:7], uint16(len(parts)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	return writeParts(w, parts)
}

// writeParts writes the (u32 len | bytes)* tail both framings share.
func writeParts(w io.Writer, parts [][]byte) error {
	var lenBuf [4]byte
	for _, p := range parts {
		binary.BigEndian.PutUint32(lenBuf[:], uint32(len(p)))
		if _, err := w.Write(lenBuf[:]); err != nil {
			return err
		}
		if _, err := w.Write(p); err != nil {
			return err
		}
	}
	return nil
}

// parseParts decodes count parts from body starting at off; they must
// fill the rest of the body exactly.
func parseParts(body []byte, off, count int) ([][]byte, error) {
	if count > maxParts {
		return nil, fmt.Errorf("transport: %d parts exceeds limit", count)
	}
	var parts [][]byte
	for i := 0; i < count; i++ {
		if off+4 > len(body) {
			return nil, fmt.Errorf("transport: truncated part header")
		}
		n := int(binary.BigEndian.Uint32(body[off : off+4]))
		off += 4
		if n < 0 || off+n > len(body) {
			return nil, fmt.Errorf("transport: part length %d exceeds frame", n)
		}
		parts = append(parts, body[off:off+n])
		off += n
	}
	if off != len(body) {
		return nil, fmt.Errorf("transport: %d trailing bytes in frame", len(body)-off)
	}
	return parts, nil
}

// frameV2 is one decoded protocol-v2 wire message: v1 framing plus a
// request ID demultiplexing concurrent in-flight requests.
type frameV2 struct {
	op    byte
	id    uint32
	parts [][]byte
	tails [][][]byte // as frame.tails
	// done, when non-nil, runs once the frame has been written (or
	// dropped on a dead connection). The server's response path uses it
	// to hold the admission slot until the response actually leaves, so
	// write-side backpressure — slow or contended clients — counts as
	// load the admission controller can see.
	done func()
}

// writeFrameV2 encodes and sends a v2 frame:
//
//	u32 totalLen | u8 op | u32 reqID | u16 partCount | (u32 len | bytes)*
func writeFrameV2(w io.Writer, op byte, id uint32, parts ...[]byte) error {
	if len(parts) > maxParts {
		return fmt.Errorf("transport: %d parts exceeds limit", len(parts))
	}
	total := 1 + 4 + 2
	for _, p := range parts {
		total += 4 + len(p)
	}
	if total > maxFrameSize {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", total)
	}
	hdr := make([]byte, 4+1+4+2)
	binary.BigEndian.PutUint32(hdr[0:4], uint32(total))
	hdr[4] = op
	binary.BigEndian.PutUint32(hdr[5:9], id)
	binary.BigEndian.PutUint16(hdr[9:11], uint16(len(parts)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	return writeParts(w, parts)
}

// readFrameV2 receives and decodes one v2 frame, transparently
// inflating a compressed envelope (opCompressed) back into the plain
// frame it carries. Decoding is unconditional — compressed frames are
// understood whether or not the hello switched compression on — but
// the declared inflated size is bounded by maxFrameSize before any
// inflation happens and nested envelopes are rejected.
//
// A received part owns its buffer: each is read into its own
// exactly-sized allocation, so whatever a caller keeps of a frame — a
// block's payload — pins that part alone, never the rest of the frame.
// A part length is checked against the bytes the frame has left before
// anything is allocated for it.
func readFrameV2(r io.Reader) (frameV2, error) {
	var hdr [4 + 1 + 4 + 2]byte // totalLen | op | reqID | partCount
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return frameV2{}, err
	}
	rest := int(binary.BigEndian.Uint32(hdr[:4]))
	if rest < 5 || rest > maxFrameSize {
		return frameV2{}, fmt.Errorf("transport: v2 frame length %d out of range", rest)
	}
	if _, err := io.ReadFull(r, hdr[4:9]); err != nil {
		return frameV2{}, err
	}
	if hdr[4] == opCompressed {
		comp := make([]byte, rest-5)
		if _, err := io.ReadFull(r, comp); err != nil {
			return frameV2{}, err
		}
		raw, err := codec.DecompressFrame(comp, int(binary.BigEndian.Uint32(hdr[5:9])), maxFrameSize)
		if err != nil {
			return frameV2{}, fmt.Errorf("transport: %w", err)
		}
		if len(raw) > 0 && raw[0] == opCompressed {
			return frameV2{}, fmt.Errorf("transport: nested compressed frame")
		}
		// The inflated frame's parts are split out as a plain frame's are.
		size := binary.BigEndian.AppendUint32(nil, uint32(len(raw)))
		return readFrameV2(io.MultiReader(bytes.NewReader(size), bytes.NewReader(raw)))
	}
	if rest < 7 {
		return frameV2{}, fmt.Errorf("transport: v2 frame body of %d bytes too short", rest)
	}
	if _, err := io.ReadFull(r, hdr[9:]); err != nil {
		return frameV2{}, err
	}
	rest -= 7
	f := frameV2{op: hdr[4], id: binary.BigEndian.Uint32(hdr[5:9])}
	if count := int(binary.BigEndian.Uint16(hdr[9:])); count > maxParts {
		return frameV2{}, fmt.Errorf("transport: %d parts exceeds limit", count)
	} else if count > 0 {
		f.parts = make([][]byte, count)
	}
	for i := range f.parts {
		if rest < 4 {
			return frameV2{}, fmt.Errorf("transport: truncated part header")
		}
		if _, err := io.ReadFull(r, hdr[:4]); err != nil {
			return frameV2{}, err
		}
		n := int(binary.BigEndian.Uint32(hdr[:4]))
		if rest -= 4; n > rest {
			return frameV2{}, fmt.Errorf("transport: part length %d exceeds frame", n)
		}
		f.parts[i] = make([]byte, n)
		if _, err := io.ReadFull(r, f.parts[i]); err != nil {
			return frameV2{}, err
		}
		rest -= n
	}
	if rest != 0 {
		return frameV2{}, fmt.Errorf("transport: %d trailing bytes in frame", rest)
	}
	return f, nil
}

// readFrame receives and decodes one frame.
func readFrame(r io.Reader) (frame, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return frame{}, err
	}
	total := binary.BigEndian.Uint32(lenBuf[:])
	if total < 3 || total > maxFrameSize {
		return frame{}, fmt.Errorf("transport: frame length %d out of range", total)
	}
	body := make([]byte, total)
	if _, err := io.ReadFull(r, body); err != nil {
		return frame{}, err
	}
	parts, err := parseParts(body, 3, int(binary.BigEndian.Uint16(body[1:3])))
	if err != nil {
		return frame{}, err
	}
	return frame{op: body[0], parts: parts}, nil
}

// muxBufSize sizes the buffered readers and writers of the multiplexed
// paths: large enough that a burst of pipelined frames coalesces into
// few syscalls instead of flushing every few kilobytes.
const muxBufSize = 64 << 10
