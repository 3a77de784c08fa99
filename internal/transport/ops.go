package transport

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/chunker"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/media"
)

// opHandler answers one single-response request from the server's
// backend. The part count is already checked against the op's row.
type opHandler func(s *Server, parts [][]byte) (byte, [][]byte)

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
	opGetDoc:         {"getdoc", 3, 3, "[name, encoding, inline]", (*Server).getDoc},
	opPutDoc:         {"putdoc", 3, 3, "[name, encoding, document]", (*Server).putDoc},
	opSubmitEdit:     {"submitedit", 2, 2, "[name, records]", (*Server).submitEdit},
	opGetBlk:         {"getblk", 1, 1, "[name]", (*Server).getBlk},
	opGetBlks:        {"getblks", 1, maxParts, "at least one name", (*Server).getBlks},
	opGetBlkManifest: {"getblkmanifest", 1, 1, "[name]", (*Server).getBlkManifest},
	opGetChunks:      {"getchunks", 1, maxParts, "at least one hash", (*Server).getChunks},
	opGetDescs:       {"getdescs", 1, maxParts, "at least one name", (*Server).getDescs},
	opPutBlk:         {"putblk", 4, 4, "[name, medium, descriptor, payload]", (*Server).putBlk},
	opList:           {"list", 0, maxParts, "[] or [scope]", (*Server).list},
	opGossip:         {"gossip", 0, 1, "[view]", peerOp("gossip", gossip)},
	opReplicate:      {"replicate", 1, 1, "[frames]", peerOp("replicate", replicate)},
	opResync:         {"resync", 1, 1, "[cursor]", peerOp("resync", resync)},
}

// handle executes one request, returning the response op and parts.
func (s *Server) handle(req frame) (byte, [][]byte) {
	spec, ok := opTable[req.op]
	if !ok {
		return fail("unknown op %d", req.op)
	}
	if n := len(req.parts); n < spec.min || n > spec.max {
		return fail("%s: want %s", spec.name, spec.want)
	}
	return spec.handle(s, req.parts)
}

func fail(format string, args ...any) (byte, [][]byte) {
	return opErr, [][]byte{[]byte(fmt.Sprintf(format, args...))}
}

func notFound(format string, args ...any) (byte, [][]byte) {
	return opErrNotFound, [][]byte{[]byte(fmt.Sprintf(format, args...))}
}

func (s *Server) getDoc(parts [][]byte) (byte, [][]byte) {
	if len(parts[1]) != 1 || len(parts[2]) != 1 {
		return fail("getdoc: encoding and inline are one byte each")
	}
	name := string(parts[0])
	doc, ok := s.backend.GetDoc(name)
	if !ok {
		return notFound("getdoc: no document %q", name)
	}
	if parts[2][0] == 1 {
		// Payloads resolve through the backend like every other block
		// read, so an edge or a non-owner cluster node inlines what it
		// can fetch, not just what it happens to hold.
		inlined, err := Inline(doc, s.backend.GetBlock, false)
		if err != nil {
			return fail("getdoc: inline: %v", err)
		}
		doc = inlined
	}
	data, err := encodeDoc(doc, Encoding(parts[1][0]))
	if err != nil {
		return fail("getdoc: %v", err)
	}
	return opOK, [][]byte{data}
}

func (s *Server) putDoc(parts [][]byte) (byte, [][]byte) {
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
	return opOK, nil
}

func (s *Server) submitEdit(parts [][]byte) (byte, [][]byte) {
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
	return opOK, [][]byte{u64be(gen)}
}

// blockHead returns the [name, medium, descriptor] parts every block
// response opens with.
func (s *Server) blockHead(blk *media.Block) ([][]byte, error) {
	desc, err := s.descriptorText(blk)
	if err != nil {
		return nil, fmt.Errorf("descriptor: %w", err)
	}
	// Room for what callers append (payload; or ID, size and manifest).
	return append(make([][]byte, 0, 6), []byte(blk.Name), []byte(blk.Medium.String()), []byte(desc)), nil
}

func (s *Server) getBlk(parts [][]byte) (byte, [][]byte) {
	name := string(parts[0])
	blk, ok := s.backend.GetBlock(name)
	if !ok {
		return notFound("getblk: no block %q", name)
	}
	// A payload past the frame limit cannot travel as one response.
	// Answer opErrTooLarge instead of dying on the write: the client
	// retries with the chunked stream.
	if len(blk.Payload) > maxFrameSize-(1<<16) {
		return opErrTooLarge, [][]byte{[]byte(fmt.Sprintf(
			"getblk: block of %d bytes exceeds the frame limit; use the chunked stream", len(blk.Payload)))}
	}
	head, err := s.blockHead(blk)
	if err != nil {
		return fail("getblk: %v", err)
	}
	return opOK, append(head, blk.Payload)
}

func (s *Server) getBlks(parts [][]byte) (byte, [][]byte) {
	out := make([][]byte, len(parts))
	inlined := 0
	for i, p := range parts {
		blk, ok := s.backend.GetBlock(string(p))
		if !ok {
			out[i] = []byte{entryMissing}
			continue
		}
		// Defer blocks that would push the response past the frame
		// limit; the client re-fetches them one at a time.
		if inlined+len(blk.Payload) > batchBudget {
			out[i] = []byte{entryDeferred}
			continue
		}
		head, err := s.blockHead(blk)
		if err != nil {
			return fail("getblks: %v", err)
		}
		out[i] = encodeEntry(append(head, blk.Payload)...)
		inlined += len(blk.Payload)
	}
	return opOK, out
}

func (s *Server) getBlkManifest(parts [][]byte) (byte, [][]byte) {
	name := string(parts[0])
	blk, ok := s.backend.GetBlock(name)
	if !ok {
		return notFound("getblkmanifest: no block %q", name)
	}
	head, err := s.blockHead(blk)
	if err != nil {
		return fail("getblkmanifest: %v", err)
	}
	// An empty manifest (block below the chunk threshold, or a backend
	// with no chunk index for it) tells the client to fall back to a
	// plain fetch.
	var manifest []byte
	if hashes, ok := s.backend.Manifest(blk.ID); ok {
		manifest = make([]byte, 0, len(hashes)*manifestEntrySize)
		for _, h := range hashes {
			chunk, ok := s.backend.GetChunk(h)
			if !ok {
				// Index shifting under a concurrent delete; punt to the
				// plain path rather than serve a torn manifest.
				manifest = nil
				break
			}
			manifest = append(manifest, h[:]...)
			manifest = binary.BigEndian.AppendUint32(manifest, uint32(len(chunk)))
		}
	}
	return opOK, append(head, []byte(blk.ID), u64be(uint64(len(blk.Payload))), manifest)
}

func (s *Server) getChunks(parts [][]byte) (byte, [][]byte) {
	out := make([][]byte, len(parts))
	for i, p := range parts {
		if len(p) != chunker.HashSize {
			return fail("getchunks: hash %d has %d bytes, want %d", i, len(p), chunker.HashSize)
		}
		var h media.ChunkHash
		copy(h[:], p)
		if data, ok := s.backend.GetChunk(h); ok {
			out[i] = encodeEntry(data)
		} else {
			out[i] = []byte{entryMissing}
		}
	}
	return opOK, out
}

func (s *Server) getDescs(parts [][]byte) (byte, [][]byte) {
	out := make([][]byte, len(parts))
	for i, p := range parts {
		blk, ok := s.backend.GetBlock(string(p))
		if !ok {
			out[i] = []byte{entryMissing}
			continue
		}
		desc, err := s.descriptorText(blk)
		if err != nil {
			return fail("getdescs: descriptor: %v", err)
		}
		out[i] = encodeEntry([]byte(blk.Name), []byte(desc))
	}
	return opOK, out
}

func (s *Server) putBlk(parts [][]byte) (byte, [][]byte) {
	blk, err := blockFromParts(parts)
	if err != nil {
		return fail("putblk: %v", err)
	}
	id, err := s.backend.StoreBlock(blk)
	if err != nil {
		return fail("putblk: %v", err)
	}
	return opOK, [][]byte{[]byte(id)}
}

func (s *Server) list(parts [][]byte) (byte, [][]byte) {
	localOnly := len(parts) == 1 && string(parts[0]) == string(listScopeLocal)
	names := s.backend.ListDocs(localOnly)
	out := make([][]byte, len(names))
	for i, n := range names {
		out[i] = []byte(n)
	}
	return opOK, out
}

// peerOp wraps a node-to-node handler so that a server whose backend is
// not a cluster node refuses the op from the table.
func peerOp(name string, h func(p PeerOps, parts [][]byte) (byte, [][]byte)) opHandler {
	return func(s *Server, parts [][]byte) (byte, [][]byte) {
		if s.peers == nil {
			return fail("%s: not a cluster node", name)
		}
		return h(s.peers, parts)
	}
}

func gossip(p PeerOps, parts [][]byte) (byte, [][]byte) {
	var view []byte
	if len(parts) == 1 {
		view = parts[0]
	}
	local, err := p.Gossip(view)
	if err != nil {
		return fail("gossip: %v", err)
	}
	return opOK, [][]byte{local}
}

func replicate(p PeerOps, parts [][]byte) (byte, [][]byte) {
	if err := p.Replicate(parts[0]); err != nil {
		return fail("replicate: %v", err)
	}
	return opOK, nil
}

func resync(p PeerOps, parts [][]byte) (byte, [][]byte) {
	frames, next, err := p.Resync(string(parts[0]))
	if err != nil {
		return fail("resync: %v", err)
	}
	return opOK, [][]byte{frames, []byte(next)}
}

// descCacheCap bounds the descriptor cache. Past it the cache starts
// over: descriptors are cheap to re-encode, and a reset keeps the hot
// path to one map lookup with no recency bookkeeping.
const descCacheCap = 4096

// descriptorText returns the block's wire-encoded descriptor, memoized
// by content address. Blocks are immutable under their ID, so an entry
// never goes stale.
func (s *Server) descriptorText(blk *media.Block) (string, error) {
	s.descMu.RLock()
	text, ok := s.descCache[blk.ID]
	s.descMu.RUnlock()
	s.metrics.descCacheLookup(ok)
	if ok {
		return text, nil
	}
	text, err := codec.EncodeNode(descriptorNode(blk), codec.WriteOptions{Form: codec.Embedded})
	if err != nil {
		return "", err
	}
	s.descMu.Lock()
	if len(s.descCache) >= descCacheCap {
		s.descCache = make(map[string]string)
	}
	s.descCache[blk.ID] = text
	s.descMu.Unlock()
	return text, nil
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

// descriptorNode wraps a block descriptor as a CMIF fragment for the wire.
func descriptorNode(b *media.Block) *core.Node {
	n := core.NewExt()
	for _, p := range b.Descriptor.Pairs() {
		n.Attrs.Set(p.Name, p.Value)
	}
	return n
}

// blockFromParts rebuilds a block from putblk/getblk wire parts,
// hashing the payload (NewBlock) and copying it exactly once. The copy is
// one of the two the block path keeps: the block outlives the frame — in
// a store or a cache — and must not pin a batch frame of up to 64 blocks;
// on the streamed path it is also what trims the assembler's
// grow-as-received buffer to size.
func blockFromParts(parts [][]byte) (*media.Block, error) {
	medium, err := core.ParseMedium(string(parts[1]))
	if err != nil {
		return nil, err
	}
	descNode, err := codec.ParseNode(string(parts[2]))
	if err != nil {
		return nil, fmt.Errorf("descriptor: %w", err)
	}
	payload := append([]byte(nil), parts[3]...)
	return media.NewBlock(string(parts[0]), medium, payload, descNode.Attrs), nil
}
