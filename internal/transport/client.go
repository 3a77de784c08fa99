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
	// Cache, when non-nil, answers block fetches locally and collapses
	// concurrent misses for the same key into one wire call. Set before
	// sharing the client across goroutines.
	Cache *BlockCache
	// ChunkCache, when non-nil, switches single-block fetches to the
	// dedupe path: fetch the block's chunk manifest, serve every chunk
	// the cache holds locally, and pull only the missing ones. Set with WithChunkCache (or directly before
	// sharing the client across goroutines).
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
// for single-block fetches. The cache may be shared between clients;
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

// DedupeFetches counts single-block fetches answered through the
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

// RoundTrips counts requests that went out on the wire — cache hits do
// not move it, which is what the cache experiments measure. A streamed
// block transfer counts once however many chunk frames it spans.
func (c *Client) RoundTrips() int64 { return c.roundTrips.Load() }

// StreamChunks counts chunk frames received through streamed block
// transfers. Tests read it to prove the streamed path ran.
func (c *Client) StreamChunks() int64 { return c.streamChunks.Load() }

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

// GetDoc fetches the document registered under name.
func (c *Client) GetDoc(ctx context.Context, name string, opts GetDocOptions) (*core.Document, error) {
	if opts.Encoding == 0 {
		opts.Encoding = EncodingText
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

// PutDoc registers a document under name on the server. Inlined payloads
// are absorbed into the server's store.
func (c *Client) PutDoc(ctx context.Context, name string, d *core.Document, enc Encoding) error {
	if enc == 0 {
		enc = EncodingText
	}
	data, err := encodeDoc(d, enc)
	if err != nil {
		return err
	}
	_, err = c.roundTrip(ctx, opPutDoc, []byte(name), []byte{byte(enc)}, data)
	return err
}

// GetBlock fetches a data block by name or content address. With a Cache
// attached, hits are served locally and concurrent misses for the same
// name collapse into one wire call. A block too large for a single
// response frame is transparently fetched as a chunked stream.
func (c *Client) GetBlock(ctx context.Context, name string) (*media.Block, error) {
	if c.Cache != nil {
		return c.Cache.GetOrFetch(ctx, name, func(ctx context.Context) (*media.Block, error) {
			return c.getBlockWire(ctx, name)
		})
	}
	return c.getBlockWire(ctx, name)
}

// getBlockWire is the uncached single-block fetch: one round trip, with a
// transparent retry through the chunked stream when the server reports
// the block exceeds the single-frame limit. With a chunk cache
// attached, the dedupe path goes first: manifest plus missing chunks,
// falling back to the plain fetch whenever the server has no manifest
// or the reassembly does not check out.
func (c *Client) getBlockWire(ctx context.Context, name string) (*media.Block, error) {
	if c.ChunkCache != nil {
		blk, handled, err := c.getBlockDedup(ctx, name)
		if handled || err != nil {
			return blk, err
		}
	}
	parts, err := c.roundTrip(ctx, opGetBlk, []byte(name))
	if errors.Is(err, errTooLarge) {
		return c.getBlockStream(ctx, name)
	}
	if err != nil {
		return nil, err
	}
	if len(parts) != 4 {
		return nil, fmt.Errorf("transport: getblk returned %d parts", len(parts))
	}
	blk, err := blockFromParts(parts)
	if err == nil {
		c.seedChunks(blk.Payload)
	}
	return blk, err
}

// seedChunks cuts a whole payload that arrived over the plain path and
// caches its chunks, so the very next fetch of this block — or of a
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
// assembled, pull only the missing chunks (batched up to maxParts per
// round trip), and verify the reassembled payload against the server's
// content address. handled is false — and nothing is returned — when
// the server offers no manifest for the block or any step of the
// reassembly disagrees with the manifest; the caller then takes the
// plain whole-payload fetch, which remains the source of truth.
func (c *Client) getBlockDedup(ctx context.Context, name string) (blk *media.Block, handled bool, err error) {
	parts, err := c.roundTrip(ctx, opGetBlkManifest, []byte(name))
	if err != nil {
		// An old-style failure (or a proxy that does not forward the op)
		// falls back; a definitive not-found is an answer, not a fallback.
		if errors.Is(err, ErrNotFound) {
			return nil, true, err
		}
		return nil, false, nil
	}
	if len(parts) != 6 {
		return nil, false, nil
	}
	manifest := parts[5]
	if len(manifest) == 0 || len(manifest)%manifestEntrySize != 0 {
		return nil, false, nil
	}
	totalSize := binary.BigEndian.Uint64(parts[4])
	if totalSize > uint64(maxStreamBytes) {
		return nil, false, nil
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
		if size <= 0 || off+size > len(payload) {
			return nil, false, nil
		}
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
	if off != len(payload) {
		return nil, false, nil
	}

	for start := 0; start < len(missing); start += maxParts {
		end := start + maxParts
		if end > len(missing) {
			end = len(missing)
		}
		batch := missing[start:end]
		req := make([][]byte, len(batch))
		for i := range batch {
			req[i] = batch[i][:]
		}
		resp, err := c.roundTrip(ctx, opGetChunks, req...)
		if err != nil {
			return nil, false, nil
		}
		if len(resp) != len(batch) {
			return nil, false, nil
		}
		for i, entry := range resp {
			fields, flag, err := decodeEntry(entry, 1)
			if err != nil || flag != entryFound {
				// The chunk was GCed between manifest and fetch (a
				// concurrent delete): the manifest is stale, start over
				// on the plain path.
				return nil, false, nil
			}
			data := fields[0]
			h := batch[i]
			if chunker.Sum(data) != h {
				return nil, false, nil
			}
			for _, sl := range slots[h] {
				if len(data) != sl.size {
					return nil, false, nil
				}
				copy(payload[sl.off:sl.off+sl.size], data)
			}
			c.ChunkCache.Add(h, data)
		}
	}

	medium, err := core.ParseMedium(string(parts[1]))
	if err != nil {
		return nil, false, nil
	}
	descNode, err := codec.ParseNode(string(parts[2]))
	if err != nil {
		return nil, false, nil
	}
	// The manifest fully determines the payload (every chunk above was
	// verified against its content address), so once an (address,
	// manifest) pair has survived the whole-payload digest, repeat
	// assemblies can take the address as proven instead of hashing the
	// same bytes again — the warm path's throughput lives here.
	var b *media.Block
	vkey := manifestVerifyKey(parts[3], parts[1], manifest)
	if c.ChunkCache.ManifestVerified(vkey) {
		b = media.NewBlockAt(string(parts[3]), string(parts[0]), medium, payload, descNode.Attrs)
	} else {
		b = media.NewBlock(string(parts[0]), medium, payload, descNode.Attrs)
		if b.ID != string(parts[3]) {
			// Reassembly disagrees with the server's content address —
			// whatever went wrong, the plain fetch self-verifies.
			return nil, false, nil
		}
		c.ChunkCache.MarkManifestVerified(vkey)
	}
	c.dedupeFetches.Add(1)
	c.dedupeBytesSaved.Add(fromCache)
	return b, true, nil
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

// GetBlocks fetches many blocks in batched round trips: up to maxBatch
// names travel per frame, so N blocks cost ceil(N/maxBatch) round trips
// instead of N. The result is aligned with names; a name the server cannot
// resolve yields a nil entry (a partial result, not an error). With a
// Cache attached, cached names are served locally, misses join the cache's
// singleflight — concurrent fetches of the same name, batched or single,
// collapse to one wire transfer — and fetched blocks populate the cache.
func (c *Client) GetBlocks(ctx context.Context, names []string) ([]*media.Block, error) {
	// Collapse duplicates and classify each unique name: resident in the
	// cache, in flight elsewhere (wait), or ours to fetch (lead).
	seen := make(map[string]bool, len(names))
	got := make(map[string]*media.Block, len(names))
	owned := make(map[string]*flight)
	waits := make(map[string]*flight)
	var order []string // unique names this call fetches, in request order
	for _, name := range names {
		if seen[name] {
			continue
		}
		seen[name] = true
		if c.Cache == nil {
			order = append(order, name)
			continue
		}
		blk, f, leader := c.Cache.join(name)
		switch {
		case blk != nil:
			got[name] = blk
		case leader:
			owned[name] = f
			order = append(order, name)
		default:
			waits[name] = f
		}
	}
	// Whatever happens below, never strand a follower on an owned flight.
	settle := func(name string, blk *media.Block, err error) {
		if f, ok := owned[name]; ok {
			c.Cache.settle(name, f, blk, err)
			delete(owned, name)
		}
	}
	fail := func(err error) ([]*media.Block, error) {
		for name := range owned {
			settle(name, nil, err)
		}
		return nil, err
	}

	for start := 0; start < len(order); start += maxBatch {
		end := start + maxBatch
		if end > len(order) {
			end = len(order)
		}
		chunk := order[start:end]
		parts := make([][]byte, len(chunk))
		for i, name := range chunk {
			parts[i] = []byte(name)
		}
		resp, err := c.roundTrip(ctx, opGetBlks, parts...)
		if err != nil {
			return fail(err)
		}
		if len(resp) != len(chunk) {
			return fail(fmt.Errorf("transport: getblks returned %d entries for %d names", len(resp), len(chunk)))
		}
		for i, entry := range resp {
			name := chunk[i]
			fields, flag, err := decodeEntry(entry, 4)
			if err != nil {
				return fail(err)
			}
			var blk *media.Block
			switch flag {
			case entryMissing:
				// Settle with the same error shape a single-block fetch
				// of a missing name produces, so GetOrFetch followers of
				// this flight see the usual not-found taxonomy.
				settle(name, nil, fmt.Errorf("%w: %w: getblks: no block %q", ErrRemote, ErrNotFound, name))
				continue
			case entryDeferred:
				// The block was too large to inline in the batch frame;
				// fetch it on its own as a chunked stream, so oversized
				// blocks neither bypass batching with ad-hoc single
				// frames nor hit the frame wall. A not-found here (the
				// block was deleted meanwhile) stays a partial result.
				blk, err = c.getBlockStream(ctx, name)
				if errors.Is(err, ErrNotFound) {
					settle(name, nil, err)
					continue
				}
				if err != nil {
					return fail(err)
				}
			default:
				blk, err = blockFromParts(fields)
				if err != nil {
					return fail(err)
				}
			}
			settle(name, blk, nil)
			got[name] = blk
		}
	}

	// Collect the names other goroutines were already fetching.
	for name, f := range waits {
		blk, err := f.wait(ctx)
		if err != nil {
			if errors.Is(err, ErrNotFound) {
				continue // their fetch found nothing: a nil entry here too
			}
			return nil, err
		}
		got[name] = blk
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
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		if !seen[name] {
			seen[name] = true
			order = append(order, name)
		}
	}
	for start := 0; start < len(order); start += maxBatch {
		end := start + maxBatch
		if end > len(order) {
			end = len(order)
		}
		chunk := order[start:end]
		parts := make([][]byte, len(chunk))
		for i, name := range chunk {
			parts[i] = []byte(name)
		}
		resp, err := c.roundTrip(ctx, opGetDescs, parts...)
		if err != nil {
			return nil, err
		}
		if len(resp) != len(chunk) {
			return nil, fmt.Errorf("transport: getdescs returned %d entries for %d names", len(resp), len(chunk))
		}
		for i, entry := range resp {
			fields, flag, err := decodeEntry(entry, 2)
			if err != nil {
				return nil, err
			}
			if flag != entryFound {
				continue
			}
			descNode, err := codec.ParseNode(string(fields[1]))
			if err != nil {
				return nil, fmt.Errorf("transport: getdescs descriptor: %w", err)
			}
			out[chunk[i]] = descNode.Attrs
		}
	}
	return out, nil
}

// PutBlock stores a block on the server, returning its content address.
func (c *Client) PutBlock(ctx context.Context, b *media.Block) (string, error) {
	descText, err := codec.EncodeNode(descriptorNode(b), codec.WriteOptions{Form: codec.Embedded})
	if err != nil {
		return "", err
	}
	parts, err := c.roundTrip(ctx, opPutBlk,
		[]byte(b.Name), []byte(b.Medium.String()), []byte(descText), b.Payload)
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
