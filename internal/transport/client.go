package transport

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/attr"
	"repro/internal/chunker"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/media"
)

// Client is one connection to an interchange server. Safe for concurrent
// use: concurrent operations are pipelined and multiplexed over the
// single connection.
type Client struct {
	conn net.Conn
	// Timeout bounds each round trip when the request context carries no
	// deadline of its own. Zero means no per-call bound. Set before
	// sharing the client across goroutines.
	Timeout time.Duration
	// ChunkCache, when non-nil, puts the dedupe path first in every block
	// fetch: fetch the block's chunk manifest, serve every chunk the
	// cache holds locally, and pull only the missing ones. Set with
	// WithChunkCache (or directly before sharing the client across
	// goroutines).
	ChunkCache *ChunkCache

	// Traffic counters, atomically maintained across goroutines.
	bytesSent     atomic.Int64
	bytesReceived atomic.Int64
	roundTrips    atomic.Int64
	streamChunks  atomic.Int64

	// Dedupe-path counters: fetches that went through the manifest path,
	// and payload bytes served from the chunk cache instead of the wire.
	dedupeFetches    atomic.Int64
	dedupeBytesSaved atomic.Int64

	// compressedSent counts request frames that actually shipped
	// deflated; compressedSaved the bytes that saved.
	compressedSent  atomic.Int64
	compressedSaved atomic.Int64

	// wantCompress carries the dial-time compression preference into the
	// hello; compress is whether the request envelope is active.
	wantCompress bool
	compress     bool

	// mux carries every exchange after the hello.
	mux *clientMux
}

// dialConfig collects the dial options.
type dialConfig struct {
	compress   bool
	chunkCache *ChunkCache
}

// DialOption configures Dial/DialContext.
type DialOption func(*dialConfig)

// WithFrameCompression sets the client's side of the frame-compression
// negotiation: when on (the default) and the server advertises the
// flate codec at the hello, request frames at or past the codec floor
// ship deflated. Off trades wire bytes for CPU on the send side only —
// compressed responses are always decoded.
func WithFrameCompression(on bool) DialOption {
	return func(c *dialConfig) { c.compress = on }
}

// WithChunkCache attaches a chunk cache, enabling the dedupe fetch path
// for every block fetch. The cache may be shared between clients;
// chunks are content-addressed and never go stale.
func WithChunkCache(cc *ChunkCache) DialOption {
	return func(c *dialConfig) { c.chunkCache = cc }
}

// Dial connects to an interchange server with no cancellation.
func Dial(addr string, opts ...DialOption) (*Client, error) {
	return DialContext(context.Background(), addr, opts...)
}

// DialContext connects to an interchange server, honouring the context's
// cancellation and deadline during connection establishment and the
// protocol handshake. A server that refuses the hello, or answers it
// with any version but protoVersion, fails the dial with ErrUnsupported.
func DialContext(ctx context.Context, addr string, opts ...DialOption) (*Client, error) {
	cfg := dialConfig{compress: true}
	for _, o := range opts {
		o(&cfg)
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, wantCompress: cfg.compress, ChunkCache: cfg.chunkCache}
	if err := c.hello(ctx); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// hello opens a fresh connection: it offers protoVersion and learns the
// server's pipelining bound and frame codec. The hello exchange itself
// travels in v1 framing; the connection switches to multiplexed v2
// framing for everything after.
func (c *Client) hello(ctx context.Context) error {
	if deadline, ok := ctx.Deadline(); ok {
		if err := c.conn.SetDeadline(deadline); err != nil {
			return err
		}
	}
	// Cancellation interrupts a blocked handshake by forcing an expired
	// deadline; the caller closes the connection on any error here, so
	// the poisoned deadline never leaks to later operations.
	stop := context.AfterFunc(ctx, func() {
		_ = c.conn.SetDeadline(time.Unix(1, 0))
	})
	finish := func(err error) error {
		stop()
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		}
		if err != nil {
			return err
		}
		return c.conn.SetDeadline(time.Time{})
	}
	if err := writeFrame(c.conn, opHello, []byte{protoVersion}); err != nil {
		return finish(fmt.Errorf("transport: hello: %w", err))
	}
	resp, err := readFrame(c.conn)
	if err != nil {
		return finish(fmt.Errorf("transport: hello: %w", err))
	}
	if err := finish(nil); err != nil {
		return err
	}
	switch resp.op {
	case opOK:
		if len(resp.parts) == 0 || len(resp.parts[0]) != 1 {
			return fmt.Errorf("transport: malformed hello response")
		}
		if v := resp.parts[0][0]; v != protoVersion {
			return fmt.Errorf("%w: server answered the hello with v%d, this client speaks v%d", ErrUnsupported, v, protoVersion)
		}
		if len(resp.parts) != 3 || len(resp.parts[1]) != 2 || len(resp.parts[2]) != 1 {
			return fmt.Errorf("transport: malformed hello response")
		}
		c.compress = c.wantCompress && resp.parts[2][0] == codec.FrameCodecFlate
		maxInFlight := int(binary.BigEndian.Uint16(resp.parts[1]))
		c.mux = newClientMux(c.conn, maxInFlight, &c.bytesSent, &c.bytesReceived, &c.streamChunks,
			c.compress, func(raw, wire int64) {
				c.compressedSent.Add(1)
				c.compressedSaved.Add(raw - wire)
			})
		return nil
	case opErr:
		// The server does not speak protoVersion (or predates the hello
		// altogether); there is no older protocol to fall back to.
		return fmt.Errorf("%w: server refused the hello: %s", ErrUnsupported, errText(resp.parts))
	default:
		return fmt.Errorf("transport: unexpected hello response op %d", resp.op)
	}
}

// Compressed reports whether the request-side frame-compression
// envelope was negotiated (a codec-capable server, and not disabled at
// dial time). Response decoding does not depend on it: compressed
// frames are always understood.
func (c *Client) Compressed() bool { return c.compress }

// DedupeFetches counts block fetches answered through the
// manifest/chunk dedupe path rather than a whole-payload transfer.
func (c *Client) DedupeFetches() int64 { return c.dedupeFetches.Load() }

// DedupeBytesSaved reports payload bytes served from the chunk cache
// instead of the wire across dedupe-path fetches.
func (c *Client) DedupeBytesSaved() int64 { return c.dedupeBytesSaved.Load() }

// CompressedFrames counts request frames that actually shipped
// deflated; CompressedBytesSaved the wire bytes that saved.
// Tests read it to prove the compressed path ran.
func (c *Client) CompressedFrames() int64 { return c.compressedSent.Load() }

// CompressedBytesSaved reports request bytes compression kept off the
// wire. Tests read it to prove the compressed path ran.
func (c *Client) CompressedBytesSaved() int64 { return c.compressedSaved.Load() }

// BytesSent reports accumulated request traffic for the transport-cost
// experiments.
func (c *Client) BytesSent() int64 { return c.bytesSent.Load() }

// BytesReceived reports accumulated response traffic.
func (c *Client) BytesReceived() int64 { return c.bytesReceived.Load() }

// RoundTrips counts requests that went out on the wire. A streamed
// block transfer counts once however many chunk frames it spans.
func (c *Client) RoundTrips() int64 { return c.roundTrips.Load() }

// withTimeout applies the client's per-call Timeout when the context
// carries no deadline of its own.
func (c *Client) withTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); !ok && c.Timeout > 0 {
		return context.WithTimeout(ctx, c.Timeout)
	}
	return ctx, func() {}
}

// Close says goodbye and closes the connection.
func (c *Client) Close() error {
	_ = c.mux.close()
	return c.conn.Close()
}

// errText is the message an error response carries in its first part.
func errText(parts [][]byte) string {
	if len(parts) > 0 {
		return string(parts[0])
	}
	return "unknown"
}

// GetDoc fetches the document registered under name, in the binary
// encoding unless opts asks for text.
func (c *Client) GetDoc(ctx context.Context, name string, opts GetDocOptions) (*core.Document, error) {
	if opts.Encoding == 0 {
		opts.Encoding = EncodingBinary
	}
	inline := byte(0)
	if opts.Inline {
		inline = 1
	}
	parts, err := c.roundTrip(ctx, opGetDoc, []byte(name), []byte{byte(opts.Encoding)}, []byte{inline})
	if err != nil {
		return nil, err
	}
	if len(parts) != 1 {
		return nil, fmt.Errorf("transport: getdoc returned %d parts", len(parts))
	}
	return decodeDoc(parts[0], opts.Encoding)
}

// PutDoc registers a document under name on the server, in the binary
// encoding when enc is zero. Inlined payloads are absorbed into the
// server's store.
func (c *Client) PutDoc(ctx context.Context, name string, d *core.Document, enc Encoding) error {
	if enc == 0 {
		enc = EncodingBinary
	}
	data, err := encodeDoc(d, enc)
	if err != nil {
		return err
	}
	_, err = c.roundTrip(ctx, opPutDoc, []byte(name), []byte{byte(enc)}, data)
	return err
}

// GetBlock fetches a data block by name or content address: a batch of
// one through GetBlocks, so the chunk-cache dedupe path and the chunked
// stream for oversized blocks all apply. A name the server
// cannot resolve is an error matching ErrNotFound.
func (c *Client) GetBlock(ctx context.Context, name string) (*media.Block, error) {
	blocks, err := c.GetBlocks(ctx, []string{name})
	if err != nil {
		return nil, err
	}
	if blocks[0] == nil {
		return nil, errNoBlock(name)
	}
	return blocks[0], nil
}

// errNoBlock is the not-found error of a block fetch.
func errNoBlock(name string) error {
	return fmt.Errorf("%w: %w: getblks: no block %q", ErrRemote, ErrNotFound, name)
}

// seedChunks cuts a whole payload that arrived in a getblks entry or a
// stream and caches its chunks, so the very next fetch of this block — or of a
// near-duplicate sharing most of its content — takes the dedupe path
// warm. The gear chunker's fixed table guarantees the cuts match the
// server's.
func (c *Client) seedChunks(payload []byte) {
	if c.ChunkCache == nil || len(payload) < media.ChunkThreshold {
		return
	}
	for _, piece := range chunker.Split(payload, chunker.Config{}) {
		c.ChunkCache.Add(chunker.Sum(piece), piece)
	}
}

// manifestEntrySize is one wire manifest entry: a chunk's content
// address followed by its length.
const manifestEntrySize = chunker.HashSize + 4

// getBlockDedup fetches a block through the manifest/chunk path:
// resolve the manifest, copy every cached chunk into the payload being
// assembled, pull only the missing chunks (batched up to maxBatch per
// round trip), and verify the reassembled payload against the server's
// content address. A not-found is an answer and returns its error.
// Otherwise the block is nil — and the name joins the batched fetch,
// which remains the source of truth — when the server offers no
// manifest for it or any step of the reassembly disagrees with the
// manifest.
func (c *Client) getBlockDedup(ctx context.Context, name string) (*media.Block, error) {
	parts, err := c.roundTrip(ctx, opGetBlkManifest, []byte(name))
	if err != nil {
		// An old-style failure (or a proxy that does not forward the op)
		// falls back; a definitive not-found is an answer, not a fallback.
		if errors.Is(err, ErrNotFound) {
			return nil, err
		}
		return nil, nil
	}
	if len(parts) != 6 {
		return nil, nil
	}
	manifest := parts[5]
	if len(manifest) == 0 || len(manifest)%manifestEntrySize != 0 {
		return nil, nil
	}
	// Check every entry before allocating: the server cuts each manifest
	// with chunker.Config{}, so no chunk exceeds chunker.DefaultMax, and
	// the sizes must add up to the declared total. A lying manifest then
	// cannot force an allocation larger than its entries can describe.
	totalSize := binary.BigEndian.Uint64(parts[4])
	var sum uint64
	for e := 0; e < len(manifest); e += manifestEntrySize {
		size := binary.BigEndian.Uint32(manifest[e+chunker.HashSize : e+manifestEntrySize])
		if size == 0 || size > chunker.DefaultMax {
			return nil, nil
		}
		sum += uint64(size)
	}
	if sum != totalSize || totalSize > uint64(maxStreamBytes) {
		return nil, nil
	}

	// Lay the payload out from the manifest: cached chunks copy in
	// immediately, missing ones record their slot for the batched fetch.
	type slot struct {
		off  int
		size int
	}
	payload := make([]byte, totalSize)
	var missing []media.ChunkHash
	slots := make(map[media.ChunkHash][]slot)
	off := 0
	var fromCache int64
	for e := 0; e < len(manifest); e += manifestEntrySize {
		var h media.ChunkHash
		copy(h[:], manifest[e:e+chunker.HashSize])
		size := int(binary.BigEndian.Uint32(manifest[e+chunker.HashSize : e+manifestEntrySize]))
		if data, ok := c.ChunkCache.Get(h); ok && len(data) == size {
			copy(payload[off:off+size], data)
			fromCache += int64(size)
		} else {
			if _, dup := slots[h]; !dup {
				missing = append(missing, h)
			}
			slots[h] = append(slots[h], slot{off: off, size: size})
		}
		off += size
	}

	keys := make([][]byte, len(missing))
	for i := range missing {
		keys[i] = missing[i][:]
	}
	// Any disagreement — a chunk GCed between manifest and fetch (a
	// concurrent delete), or bytes that do not match their address or
	// slot — means the manifest is stale: start over on the batched path.
	errStale := errors.New("transport: stale manifest")
	err = c.fetchBatched(ctx, opGetChunks, keys, 1, func(i int, fields [][]byte, flag byte) error {
		if flag != entryFound {
			return errStale
		}
		data, h := fields[0], missing[i]
		if chunker.Sum(data) != h {
			return errStale
		}
		for _, sl := range slots[h] {
			if len(data) != sl.size {
				return errStale
			}
			copy(payload[sl.off:sl.off+sl.size], data)
		}
		c.ChunkCache.Add(h, data)
		return nil
	})
	if err != nil {
		return nil, nil
	}

	medium, err := core.ParseMedium(string(parts[1]))
	if err != nil {
		return nil, nil
	}
	desc, err := media.ParseDescriptor(parts[2])
	if err != nil {
		return nil, nil
	}
	// The manifest fully determines the payload (every chunk above was
	// verified against its content address), so once an (address,
	// manifest) pair has survived the whole-payload digest, repeat
	// assemblies can take the address as proven instead of hashing the
	// same bytes again — the warm path's throughput lives here.
	var b *media.Block
	vkey := manifestVerifyKey(parts[3], parts[1], manifest)
	if c.ChunkCache.ManifestVerified(vkey) {
		b = media.NewBlockAt(string(parts[3]), string(parts[0]), medium, payload, desc)
	} else {
		b = media.NewBlock(string(parts[0]), medium, payload, desc)
		if b.ID != string(parts[3]) {
			// Reassembly disagrees with the server's content address —
			// whatever went wrong, the batched fetch self-verifies.
			return nil, nil
		}
		c.ChunkCache.MarkManifestVerified(vkey)
	}
	c.dedupeFetches.Add(1)
	c.dedupeBytesSaved.Add(fromCache)
	return b, nil
}

// manifestVerifyKey digests the (content address, medium, manifest)
// binding the dedupe path proves on first assembly and memoizes after.
func manifestVerifyKey(id, medium, manifest []byte) [32]byte {
	h := sha256.New()
	h.Write(id)
	h.Write([]byte{0})
	h.Write(medium)
	h.Write([]byte{0})
	h.Write(manifest)
	var key [32]byte
	h.Sum(key[:0])
	return key
}

// fetchBatched sends keys under op, at most maxBatch per frame, so N keys
// cost ceil(N/maxBatch) round trips. It checks each response carries one
// entry per key and hands visit the key's index with its decoded entry
// (nFields fields when found). The first error stops the fetch.
func (c *Client) fetchBatched(ctx context.Context, op byte, keys [][]byte, nFields int, visit func(i int, fields [][]byte, flag byte) error) error {
	for start := 0; start < len(keys); start += maxBatch {
		end := min(start+maxBatch, len(keys))
		resp, err := c.roundTrip(ctx, op, keys[start:end]...)
		if err != nil {
			return err
		}
		if len(resp) != end-start {
			return fmt.Errorf("transport: %s returned %d entries for %d keys", opNames[op], len(resp), end-start)
		}
		for i, entry := range resp {
			fields, flag, err := decodeEntry(entry, nFields)
			if err != nil {
				return err
			}
			if err := visit(start+i, fields, flag); err != nil {
				return err
			}
		}
	}
	return nil
}

// GetBlocks is the client's one fetch plan. The result is aligned with
// names; a name the server cannot resolve yields a nil entry (a partial
// result, not an error). Duplicate names are fetched once, and each
// unique name goes through these steps:
//
//  1. With a ChunkCache attached, each name tries the manifest/chunk
//     dedupe path first. A not-found is an answer; anything the path
//     does not handle goes on to step 2.
//  2. The remaining names travel up to maxBatch per getblks frame. An
//     entry the server deferred as too large for the frame is fetched
//     on its own as a chunked stream. Every decoded block seeds the
//     chunk cache.
func (c *Client) GetBlocks(ctx context.Context, names []string) ([]*media.Block, error) {
	got := make(map[string]*media.Block, len(names))
	var order []string // unique names, in request order
	for _, name := range names {
		if _, dup := got[name]; !dup {
			got[name] = nil
			order = append(order, name)
		}
	}

	if c.ChunkCache != nil {
		rest := order[:0]
		for _, name := range order {
			blk, err := c.getBlockDedup(ctx, name)
			if err == nil && blk == nil {
				rest = append(rest, name)
				continue
			}
			got[name] = blk
		}
		order = rest
	}

	keys := make([][]byte, len(order))
	for i, name := range order {
		keys[i] = []byte(name)
	}
	err := c.fetchBatched(ctx, opGetBlks, keys, 4, func(i int, fields [][]byte, flag byte) error {
		name := order[i]
		var blk *media.Block
		var err error
		switch flag {
		case entryMissing:
			return nil
		case entryDeferred:
			// The block was too large to inline in the batch frame; fetch
			// it on its own as a chunked stream, so oversized blocks
			// neither bypass batching with ad-hoc single frames nor hit
			// the frame wall. A not-found here (the block was deleted
			// meanwhile) stays a partial result.
			blk, err = c.getBlockStream(ctx, name)
			if errors.Is(err, ErrNotFound) {
				return nil
			}
		default:
			blk, err = blockFromParts(fields)
		}
		if err != nil {
			return err
		}
		c.seedChunks(blk.Payload)
		got[name] = blk
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Fill results aligned with the request; duplicate names share one
	// block (a missing name leaves nil).
	out := make([]*media.Block, len(names))
	for i, name := range names {
		out[i] = got[name]
	}
	return out, nil
}

// GetDescriptors fetches only the data descriptors (attribute lists) of
// the named blocks, batched like GetBlocks but without moving payloads —
// the cheap attribute-cluster queries of the paper's section 6. Names the
// server cannot resolve are absent from the result map.
func (c *Client) GetDescriptors(ctx context.Context, names []string) (map[string]attr.List, error) {
	out := make(map[string]attr.List, len(names))
	var order []string
	var keys [][]byte
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		if !seen[name] {
			seen[name] = true
			order = append(order, name)
			keys = append(keys, []byte(name))
		}
	}
	err := c.fetchBatched(ctx, opGetDescs, keys, 2, func(i int, fields [][]byte, flag byte) error {
		if flag != entryFound {
			return nil
		}
		desc, err := media.ParseDescriptor(fields[1])
		if err != nil {
			return fmt.Errorf("transport: getdescs descriptor: %w", err)
		}
		out[order[i]] = desc
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PutBlock stores a block on the server, returning its content address.
func (c *Client) PutBlock(ctx context.Context, b *media.Block) (string, error) {
	desc, err := b.DescriptorText()
	if err != nil {
		return "", err
	}
	parts, err := c.roundTrip(ctx, opPutBlk,
		[]byte(b.Name), []byte(b.Medium.String()), desc, b.Payload)
	if err != nil {
		return "", err
	}
	if len(parts) != 1 {
		return "", fmt.Errorf("transport: putblk returned %d parts", len(parts))
	}
	return string(parts[0]), nil
}

// ListDocs returns the names of documents the server offers.
func (c *Client) ListDocs(ctx context.Context) ([]string, error) {
	return c.listDocs(ctx)
}

// ListDocsLocal returns only the documents the server holds locally,
// skipping any cluster-wide or upstream merge — the query cluster nodes
// use on each other so a listing fan-out cannot recurse.
func (c *Client) ListDocsLocal(ctx context.Context) ([]string, error) {
	return c.listDocs(ctx, listScopeLocal)
}

func (c *Client) listDocs(ctx context.Context, scope ...[]byte) ([]string, error) {
	parts, err := c.roundTrip(ctx, opList, scope...)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(parts))
	for i, p := range parts {
		out[i] = string(p)
	}
	return out, nil
}

// GossipExchange sends an encoded membership view to a cluster node and
// returns the node's view after the merge. An empty view reads the
// node's membership without asserting any — how a cluster client
// discovers the member set.
func (c *Client) GossipExchange(ctx context.Context, view []byte) ([]byte, error) {
	parts, err := c.roundTrip(ctx, opGossip, view)
	if err != nil {
		return nil, err
	}
	if len(parts) != 1 {
		return nil, fmt.Errorf("transport: gossip returned %d parts", len(parts))
	}
	return parts[0], nil
}

// Replicate ships a batch of framed durable WAL records to a replica,
// which verifies, appends and applies them before answering.
func (c *Client) Replicate(ctx context.Context, frames []byte) error {
	_, err := c.roundTrip(ctx, opReplicate, frames)
	return err
}

// ResyncPull fetches one chunk of a peer's full state as framed WAL
// records, resuming from cursor ("" starts). An empty next cursor ends
// the walk.
func (c *Client) ResyncPull(ctx context.Context, cursor string) (frames []byte, next string, err error) {
	parts, err := c.roundTrip(ctx, opResync, []byte(cursor))
	if err != nil {
		return nil, "", err
	}
	if len(parts) != 2 {
		return nil, "", fmt.Errorf("transport: resync returned %d parts", len(parts))
	}
	return parts[0], string(parts[1]), nil
}

// ErrNotFound reports that the server does not hold the requested document
// or block. It is wrapped (with ErrRemote) into errors returned by GetDoc
// and GetBlock, so callers can test errors.Is(err, ErrNotFound).
var ErrNotFound = errors.New("not found")

// ErrUnsupported reports that the server does not speak protoVersion:
// Dial fails with it when the hello is refused or answered with another
// version. Matched with errors.Is.
var ErrUnsupported = errors.New("transport: protocol version not supported")
