package transport

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/chunker"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/media"
)

// opHandler answers one single-response request from the server's
// backend. The part count is already checked against the op's row.
type opHandler func(s *Server, parts [][]byte) frame

// opSpec is one row of the op table: the request arity and the handler.
type opSpec struct {
	name     string
	min, max int    // accepted part count, inclusive
	want     string // what the arity error asks for
	handle   opHandler
}

// opTable maps every single-response request op to its row. The
// multi-frame ops (opGetBlkStream, opSubscribe, opUnsubscribe) need the
// connection and are dispatched by handleV2.
var opTable = map[byte]opSpec{
	opGetDoc:     {"getdoc", 3, 3, "[name, encoding, inline]", (*Server).getDoc},
	opPutDoc:     {"putdoc", 3, 3, "[name, encoding, document]", (*Server).putDoc},
	opSubmitEdit: {"submitedit", 2, 2, "[name, records]", (*Server).submitEdit},
	opGetBlks:    {"getblks", 1, maxParts, "at least one name", (*Server).getBlks},
	opGetDescs:   {"getdescs", 1, maxParts, "at least one name", (*Server).getDescs},
	opPutBlk:     {"putblk", 4, 4, "[name, medium, descriptor, payload]", (*Server).putBlk},
	opList:       {"list", 0, maxParts, "[] or [scope]", (*Server).list},
	opGossip:     {"gossip", 0, 1, "[view]", peerOp("gossip", gossip)},
	opReplicate:  {"replicate", 1, 1, "[frames]", peerOp("replicate", replicate)},
	opResync:     {"resync", 1, 1, "[cursor]", peerOp("resync", resync)},
}

// handle executes one request, returning the response frame.
func (s *Server) handle(req frame) frame {
	spec, ok := opTable[req.op]
	if !ok {
		return fail("unknown op %d", req.op)
	}
	if n := len(req.parts); n < spec.min || n > spec.max {
		return fail("%s: want %s", spec.name, spec.want)
	}
	return spec.handle(s, req.parts)
}

func okFrame(parts ...[]byte) frame { return frame{op: opOK, parts: parts} }

func fail(format string, args ...any) frame {
	return frame{op: opErr, parts: [][]byte{[]byte(fmt.Sprintf(format, args...))}}
}

func notFound(format string, args ...any) frame {
	return frame{op: opErrNotFound, parts: [][]byte{[]byte(fmt.Sprintf(format, args...))}}
}

func (s *Server) getDoc(parts [][]byte) frame {
	if len(parts[1]) != 1 || len(parts[2]) != 1 {
		return fail("getdoc: encoding and inline are one byte each")
	}
	name := string(parts[0])
	e, ok := s.backend.GetDoc(name)
	if !ok {
		return notFound("getdoc: no document %q", name)
	}
	enc := Encoding(parts[1][0])
	var data []byte
	var err error
	switch {
	case parts[2][0] == 1:
		// Payloads resolve through the backend like every other block
		// read, so an edge or a non-owner cluster node inlines what it
		// can fetch, not just what it happens to hold.
		inlined, ierr := Inline(e.Doc(), s.backend.GetBlock, false)
		if ierr != nil {
			return fail("getdoc: inline: %v", ierr)
		}
		data, err = encodeDoc(inlined, enc)
	case enc == EncodingBinary:
		data, err = e.Binary() // the registration's one encoding, shared
	default:
		data, err = encodeDoc(e.Doc(), enc)
	}
	if err != nil {
		return fail("getdoc: %v", err)
	}
	return okFrame(data)
}

func (s *Server) putDoc(parts [][]byte) frame {
	if len(parts[1]) != 1 {
		return fail("putdoc: encoding is one byte")
	}
	doc, err := decodeDoc(parts[2], Encoding(parts[1][0]))
	if err != nil {
		return fail("putdoc: %v", err)
	}
	if err := s.backend.StoreDoc(string(parts[0]), doc); err != nil {
		return fail("putdoc: %v", err)
	}
	return okFrame()
}

func (s *Server) submitEdit(parts [][]byte) frame {
	recs, err := core.DecodeChangeRecords(parts[1])
	if err != nil {
		return fail("submitedit: %v", err)
	}
	name := string(parts[0])
	gen, err := s.backend.SubmitEdit(name, recs)
	switch {
	case errors.Is(err, ErrNotFound):
		return notFound("submitedit: no document %q", name)
	case err != nil:
		// Typically a conflict: an earlier writer's edit won and this
		// batch's pre-edit paths no longer resolve. Nothing was applied;
		// the "conflict:" text survives any relay, so clients classify it
		// as ErrConflict and refetch.
		return fail("submitedit: %v", err)
	}
	return okFrame(u64be(gen))
}

// blockHead returns the [name, medium, descriptor] parts every block
// response opens with.
func (s *Server) blockHead(blk *media.Block) ([][]byte, error) {
	desc, err := blk.DescriptorText()
	if err != nil {
		return nil, fmt.Errorf("descriptor: %w", err)
	}
	// Room for what callers append (payload; or ID, size and manifest).
	return append(make([][]byte, 0, 6), []byte(blk.Name), []byte(blk.Medium.String()), desc), nil
}

// getBlks answers opGetBlks: each repeat of content an earlier entry
// inlined travels as a back-reference to that entry, and each block
// that repeats chunks an earlier entry inlined as a chunked entry
// copying them.
func (s *Server) getBlks(parts [][]byte) frame {
	out := frame{op: opOK, parts: make([][]byte, len(parts)), tails: make([][][]byte, len(parts))}
	var chunks chunkIndex
	inlined := 0
	var sent []int // the entries that inlined their block
	var sentBlk []*media.Block
	for i, p := range parts {
		blk, ok := s.backend.GetBlock(string(p))
		if !ok {
			out.parts[i] = []byte{entryMissing}
			continue
		}
		if j := repeatOf(blk, sentBlk); j >= 0 {
			name := ""
			if blk.Name != sentBlk[j].Name {
				name = blk.Name
			}
			out.parts[i] = encodeRef(sent[j], name)
			continue
		}
		// Defer blocks that would push the response past the frame
		// limit; the client re-fetches them one at a time.
		if inlined+len(blk.Payload) > batchBudget {
			out.parts[i] = []byte{entryDeferred}
			continue
		}
		head, err := s.blockHead(blk)
		if err != nil {
			return fail("getblks: %v", err)
		}
		if segs := chunks.segments(i, blk); segs != nil {
			out.parts[i], out.tails[i] = encodeChunked(head, blk.Payload, segs)
		} else {
			out.parts[i], out.tails[i] = oneTail(encodeEntry(append(head, blk.Payload)...))
		}
		inlined += len(blk.Payload)
		sent, sentBlk = append(sent, i), append(sentBlk, blk)
	}
	return out
}

// repeatOf returns the index in sentBlk of a block blk can travel as a
// back-reference to, or -1: the same block, or one with its content
// address, medium and descriptor text under a name a reference can carry
// (a block without an address, or an unnamed one, repeats only itself).
func repeatOf(blk *media.Block, sentBlk []*media.Block) int {
	for j, prev := range sentBlk {
		if prev == blk {
			return j
		}
		if blk.ID == "" || prev.ID != blk.ID || prev.Medium != blk.Medium || (blk.Name == "" && prev.Name != "") {
			continue
		}
		a, errA := prev.DescriptorText()
		b, errB := blk.DescriptorText()
		if errA == nil && errB == nil && bytes.Equal(a, b) {
			return j
		}
	}
	return -1
}

// chunkIndex finds, for each chunkable block (media.ChunkThreshold) a
// response inlines, the chunks an earlier entry of that response
// already carried. The first chunkable block is only remembered: it is
// cut when a second one arrives, so a response inlining at most one
// cuts nothing. Cuts come from the block's own memo (media.Block.Cuts)
// and serve as an index only: a copy is sent only for bytes that
// compare equal.
type chunkIndex struct {
	first   *media.Block // the first chunkable block, until a second arrives
	firstAt int
	at      map[media.ChunkHash]chunkAt // each indexed chunk's first carrier
}

// chunkAt is where an indexed chunk's bytes travel: at off in the
// payload of entry.
type chunkAt struct {
	entry, off int
	payload    []byte
}

// minCopied is the share of a block copies must cover for it to travel
// chunked. Its reader assembles a chunked block into a second buffer of
// the block's size, which a block copying less saves too little wire to
// pay for.
const minCopied = 4 // a quarter

// segments returns the segments spelling blk, inlined by entry i, when
// copies of earlier entries' chunks cover at least 1/minCopied of it;
// nil means blk travels as a found entry.
func (x *chunkIndex) segments(i int, blk *media.Block) []segment {
	if len(blk.Payload) < media.ChunkThreshold {
		return nil
	}
	if x.at == nil {
		if x.first == nil {
			x.first, x.firstAt = blk, i
			return nil
		}
		x.at = make(map[media.ChunkHash]chunkAt)
		x.index(x.firstAt, x.first.Payload, x.first.Cuts())
	}
	cuts := blk.Cuts()
	var segs []segment
	copied, off := 0, 0
	for _, c := range cuts {
		chunk := blk.Payload[off : off+c.Len]
		src, ok := x.at[c.Hash]
		last := len(segs) - 1
		switch {
		case ok && src.off+c.Len <= len(src.payload) && bytes.Equal(src.payload[src.off:src.off+c.Len], chunk):
			copied += c.Len
			if last >= 0 && segs[last].entry == src.entry && segs[last].off+segs[last].n == src.off {
				segs[last].n += c.Len
			} else {
				segs = append(segs, segment{entry: src.entry, off: src.off, n: c.Len})
			}
		case last >= 0 && segs[last].entry < 0:
			segs[last].n += c.Len
		default:
			segs = append(segs, segment{entry: -1, off: off, n: c.Len})
		}
		off += c.Len
	}
	x.index(i, blk.Payload, cuts)
	if copied*minCopied < len(blk.Payload) {
		return nil
	}
	return segs
}

// index records the chunks of entry i's payload no earlier entry
// carried.
func (x *chunkIndex) index(i int, payload []byte, cuts []chunker.Cut) {
	off := 0
	for _, c := range cuts {
		if _, ok := x.at[c.Hash]; !ok {
			x.at[c.Hash] = chunkAt{entry: i, off: off, payload: payload}
		}
		off += c.Len
	}
}

func (s *Server) getDescs(parts [][]byte) frame {
	out := frame{op: opOK, parts: make([][]byte, len(parts)), tails: make([][][]byte, len(parts))}
	for i, p := range parts {
		blk, ok := s.backend.GetBlock(string(p))
		if !ok {
			out.parts[i] = []byte{entryMissing}
			continue
		}
		desc, err := blk.DescriptorText()
		if err != nil {
			return fail("getdescs: descriptor: %v", err)
		}
		out.parts[i], out.tails[i] = oneTail(encodeEntry([]byte(blk.Name), desc))
	}
	return out
}

func (s *Server) putBlk(parts [][]byte) frame {
	blk, err := blockFromParts(parts)
	if err != nil {
		return fail("putblk: %v", err)
	}
	id, err := s.backend.StoreBlock(blk)
	if err != nil {
		return fail("putblk: %v", err)
	}
	return okFrame([]byte(id))
}

func (s *Server) list(parts [][]byte) frame {
	localOnly := len(parts) == 1 && string(parts[0]) == string(listScopeLocal)
	names := s.backend.ListDocs(localOnly)
	out := make([][]byte, len(names))
	for i, n := range names {
		out[i] = []byte(n)
	}
	return okFrame(out...)
}

// peerOp wraps a node-to-node handler so that a server whose backend is
// not a cluster node refuses the op from the table.
func peerOp(name string, h func(p PeerOps, parts [][]byte) frame) opHandler {
	return func(s *Server, parts [][]byte) frame {
		if s.peers == nil {
			return fail("%s: not a cluster node", name)
		}
		return h(s.peers, parts)
	}
}

func gossip(p PeerOps, parts [][]byte) frame {
	var view []byte
	if len(parts) == 1 {
		view = parts[0]
	}
	local, err := p.Gossip(view)
	if err != nil {
		return fail("gossip: %v", err)
	}
	return okFrame(local)
}

func replicate(p PeerOps, parts [][]byte) frame {
	if err := p.Replicate(parts[0]); err != nil {
		return fail("replicate: %v", err)
	}
	return okFrame()
}

func resync(p PeerOps, parts [][]byte) frame {
	frames, next, err := p.Resync(string(parts[0]))
	if err != nil {
		return fail("resync: %v", err)
	}
	return okFrame(frames, []byte(next))
}

func encodeDoc(d *core.Document, enc Encoding) ([]byte, error) {
	switch enc {
	case EncodingText:
		s, err := codec.Encode(d, codec.WriteOptions{Form: codec.Conventional})
		return []byte(s), err
	case EncodingBinary:
		return codec.EncodeBinary(d)
	default:
		return nil, fmt.Errorf("unknown encoding %q", byte(enc))
	}
}

func decodeDoc(data []byte, enc Encoding) (*core.Document, error) {
	switch enc {
	case EncodingText:
		return codec.Parse(string(data))
	case EncodingBinary:
		return codec.DecodeBinary(data)
	default:
		return nil, fmt.Errorf("unknown encoding %q", byte(enc))
	}
}

// blockFromParts rebuilds a block from putblk/getblks wire parts,
// hashing the payload (NewBlock). The payload is parts[3] itself,
// capacity-clipped, not a copy: a received part owns its buffer
// (readPartsV2), so the block pins that part alone — for a batch entry,
// its few header bytes beyond the payload — never a whole frame.
func blockFromParts(parts [][]byte) (*media.Block, error) {
	medium, err := core.ParseMedium(string(parts[1]))
	if err != nil {
		return nil, err
	}
	desc, err := media.ParseDescriptor(parts[2])
	if err != nil {
		return nil, fmt.Errorf("descriptor: %w", err)
	}
	payload := parts[3][:len(parts[3]):len(parts[3])]
	return media.NewBlock(string(parts[0]), medium, payload, desc), nil
}
