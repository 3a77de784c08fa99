package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/attr"
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

	// Traffic counters, atomically maintained across goroutines.
	bytesSent     atomic.Int64
	bytesReceived atomic.Int64
	roundTrips    atomic.Int64
	streamChunks  atomic.Int64

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
	compress bool
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
	c := &Client{conn: conn, wantCompress: cfg.compress}
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
// one through GetBlocks, so an oversized block arrives as a chunked
// stream. A name the server cannot resolve is an error matching
// ErrNotFound.
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

// fetchBatched sends keys under op, at most maxBatch per frame, so N keys
// cost ceil(N/maxBatch) round trips. It checks each response carries one
// entry per key and hands it whole to visit with the index of its first
// key. The first error stops the fetch.
func (c *Client) fetchBatched(ctx context.Context, op byte, keys [][]byte, visit func(start int, resp [][]byte) error) error {
	for start := 0; start < len(keys); start += maxBatch {
		end := min(start+maxBatch, len(keys))
		resp, err := c.roundTrip(ctx, op, keys[start:end]...)
		if err != nil {
			return err
		}
		if len(resp) != end-start {
			return fmt.Errorf("transport: %s returned %d entries for %d keys", opNames[op], len(resp), end-start)
		}
		if err := visit(start, resp); err != nil {
			return err
		}
	}
	return nil
}

// GetBlocks is the client's one fetch plan. The result is aligned with
// names; a name the server cannot resolve yields a nil entry (a partial
// result, not an error). Duplicate names are fetched once. The unique
// names travel up to maxBatch per getblks frame, and an entry the server
// deferred as too large for the frame is fetched on its own as a chunked
// stream. A key in content-address form (media.IsContentAddress) is
// answered only by a block with that address: any other fails the call
// with an *AddressMismatchError, whatever name the block came back under.
func (c *Client) GetBlocks(ctx context.Context, names []string) ([]*media.Block, error) {
	got := make(map[string]*media.Block, len(names))
	var order []string // unique names, in request order
	for _, name := range names {
		if _, dup := got[name]; !dup {
			got[name] = nil
			order = append(order, name)
		}
	}

	keys := make([][]byte, len(order))
	for i, name := range order {
		keys[i] = []byte(name)
	}
	err := c.fetchBatched(ctx, opGetBlks, keys, func(start int, resp [][]byte) error {
		blocks, flags, err := decodeBlocks(resp)
		if err != nil {
			return err
		}
		for i, name := range order[start : start+len(resp)] {
			blk := blocks[i]
			switch flags[i] {
			case entryMissing:
				continue
			case entryDeferred:
				// The block was too large to inline in the batch frame;
				// fetch it on its own as a chunked stream, so oversized
				// blocks neither bypass batching with ad-hoc single frames
				// nor hit the frame wall. A not-found here (the block was
				// deleted meanwhile) stays a partial result.
				blk, err = c.getBlockStream(ctx, name)
				if errors.Is(err, ErrNotFound) {
					continue
				}
				if err != nil {
					return err
				}
			}
			// Asked by address, the block is checked by the ID its bytes
			// already hashed to, whatever name it came back under: an
			// honest store puts no address-shaped name but a block's own.
			if blk.ID != name && media.IsContentAddress(name) {
				return &AddressMismatchError{Key: name, ID: blk.ID}
			}
			got[name] = blk
		}
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

// decodeBlocks rebuilds the blocks of one getblks response, aligned with
// its entries. A found entry becomes a block named by the hash of its
// payload. A back-reference resolves to the block an earlier found or
// chunked entry built — the same payload and address, renamed when the
// reference carries a name — and a chunked entry becomes a block named
// by the hash of the payload its segments spell from its own bytes and
// earlier found or chunked entries' payloads. Missing and deferred
// entries leave nil. flags holds each entry's flag. A reference or copy
// that does not point back at such an entry, a copy past its source's
// end, or chunked payloads adding up to more than maxFrameSize fail the
// response.
func decodeBlocks(resp [][]byte) (blocks []*media.Block, flags []byte, err error) {
	blocks = make([]*media.Block, len(resp))
	flags = make([]byte, len(resp))
	carried := func(i, j int) bool { // entry j carried a payload entry i may reuse
		return j < i && (flags[j] == entryFound || flags[j] == entryChunked)
	}
	assembled := 0 // payload bytes chunked entries spelled so far
	for i, part := range resp {
		if len(part) > 0 && part[0] == entryChunked {
			fields, size, segs, err := decodeChunked(part)
			if err != nil {
				return nil, nil, err
			}
			if assembled += size; assembled > maxFrameSize {
				return nil, nil, fmt.Errorf("transport: getblks chunked entries spell more than %d bytes", maxFrameSize)
			}
			payload := make([]byte, 0, size)
			for _, sg := range segs {
				if sg.entry < 0 { // a literal, inside the part by decodeChunked
					payload = append(payload, part[sg.off:sg.off+sg.n]...)
					continue
				}
				if !carried(i, sg.entry) {
					return nil, nil, fmt.Errorf("transport: getblks entry %d copies entry %d, not an earlier payload", i, sg.entry)
				}
				src := blocks[sg.entry].Payload
				if sg.off > len(src) || sg.n > len(src)-sg.off {
					return nil, nil, fmt.Errorf("transport: getblks entry %d copies past the end of entry %d", i, sg.entry)
				}
				payload = append(payload, src[sg.off:sg.off+sg.n]...)
			}
			flags[i] = entryChunked
			if blocks[i], err = blockFromParts(append(fields, payload)); err != nil {
				return nil, nil, err
			}
			continue
		}
		if len(part) > 0 && part[0] == entryRef {
			j, name, err := decodeRef(part)
			if err != nil {
				return nil, nil, err
			}
			if !carried(i, j) {
				return nil, nil, fmt.Errorf("transport: getblks entry %d refers to entry %d, not an earlier payload", i, j)
			}
			flags[i], blocks[i] = entryRef, blocks[j]
			if len(name) > 0 {
				blocks[i] = blocks[j].WithName(string(name))
			}
			continue
		}
		fields, flag, err := decodeEntry(part, 4)
		if err != nil {
			return nil, nil, err
		}
		flags[i] = flag
		if flag == entryFound {
			if blocks[i], err = blockFromParts(fields); err != nil {
				return nil, nil, err
			}
		}
	}
	return blocks, flags, nil
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
	err := c.fetchBatched(ctx, opGetDescs, keys, func(start int, resp [][]byte) error {
		for i, entry := range resp {
			fields, flag, err := decodeEntry(entry, 2)
			if err != nil {
				return err
			}
			if flag != entryFound {
				continue
			}
			desc, err := media.ParseDescriptor(fields[1])
			if err != nil {
				return fmt.Errorf("transport: getdescs descriptor: %w", err)
			}
			out[order[start+i]] = desc
		}
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

// AddressMismatchError reports a block fetched by content address whose
// bytes have another address. GetBlocks fails with it instead of
// settling the wrong bytes under the key asked for. It matches ErrRemote:
// the server answered, wrongly, and a cluster peer that did is not down.
type AddressMismatchError struct {
	Key string // the content address asked for
	ID  string // the content address of the bytes that came back
}

func (e *AddressMismatchError) Error() string {
	return fmt.Sprintf("transport: getblks: block %s came back as %s", e.Key, e.ID)
}

func (e *AddressMismatchError) Unwrap() error { return ErrRemote }

// ErrUnsupported reports that the server does not speak protoVersion:
// Dial fails with it when the hello is refused or answered with another
// version. Matched with errors.Is.
var ErrUnsupported = errors.New("transport: protocol version not supported")
