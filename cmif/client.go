package cmif

import (
	"context"
	"time"

	"repro/internal/transport"
)

// Client talks to an interchange server over one connection. Safe for
// concurrent use: concurrent operations are pipelined and multiplexed
// over the connection. Every operation takes a context.Context whose
// deadline and cancellation are enforced on the wire; a cancelled call
// abandons only that request — the connection survives.
type Client struct {
	tc *transport.Client
}

// clientConfig collects the dial options.
type clientConfig struct {
	timeout  time.Duration
	compress bool
}

// DialOption configures Dial. Dial options are a distinct type from the
// server's ServeOption and the edge tier's EdgeOption, so mixing option
// sets across constructors is a compile error rather than a silent
// misconfiguration.
type DialOption func(*clientConfig)

// WithRequestTimeout bounds each round trip that carries no context
// deadline of its own. Zero (the default) means unbounded.
func WithRequestTimeout(d time.Duration) DialOption {
	return func(c *clientConfig) { c.timeout = d }
}

// WithCompression turns negotiated per-frame compression on or off for
// this client (the default is on). It takes effect only when the server
// has compression enabled too; either side declining leaves frames
// plain.
func WithCompression(on bool) DialOption {
	return func(c *clientConfig) { c.compress = on }
}

// Dial connects to an interchange server, honouring ctx during connection
// establishment and the protocol handshake. A server that does not speak
// the wire protocol's one version (v4) fails the dial with
// ErrUnsupported.
func Dial(ctx context.Context, addr string, opts ...DialOption) (*Client, error) {
	cfg := clientConfig{compress: true}
	for _, o := range opts {
		o(&cfg)
	}
	tc, err := transport.DialContext(ctx, addr, transport.WithFrameCompression(cfg.compress))
	if err != nil {
		return nil, wireError(err)
	}
	tc.Timeout = cfg.timeout
	return &Client{tc: tc}, nil
}

// Close says goodbye and closes the connection.
func (c *Client) Close() error { return c.tc.Close() }

// BytesSent reports accumulated request traffic, for transport-cost
// accounting.
func (c *Client) BytesSent() int64 { return c.tc.BytesSent() }

// BytesReceived reports accumulated response traffic.
func (c *Client) BytesReceived() int64 { return c.tc.BytesReceived() }

// wireConfig collects the per-call wire options.
type wireConfig struct {
	inline bool
}

// WireOption configures document fetches (Client.Document).
type WireOption func(*wireConfig)

// WithInline asks the server to inline data payloads into the tree, so the
// transfer is self-contained (no shared storage server). Fetch-only.
func WithInline() WireOption {
	return func(c *wireConfig) { c.inline = true }
}

func wireConfigOf(opts []WireOption) wireConfig {
	var cfg wireConfig
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// Document fetches the document registered under name, in the binary
// encoding the server keeps for it. A missing name matches both
// ErrRemote and ErrNotFound under errors.Is.
func (c *Client) Document(ctx context.Context, name string, opts ...WireOption) (*Document, error) {
	cfg := wireConfigOf(opts)
	d, err := c.tc.GetDoc(ctx, name, transport.GetDocOptions{Inline: cfg.inline})
	if err != nil {
		return nil, wireError(err)
	}
	return wrapDocument(d), nil
}

// OpenDoc fetches the document registered under name — the Fetcher
// surface of Document.
func (c *Client) OpenDoc(ctx context.Context, name string) (*Document, error) {
	return c.Document(ctx, name)
}

// Put registers a document under name on the server, shipped in the
// binary encoding. Inlined payloads are absorbed into the server's
// store.
func (c *Client) Put(ctx context.Context, name string, d *Document) error {
	return wireError(c.tc.PutDoc(ctx, name, d.doc, transport.EncodingBinary))
}

// Block fetches a data block by name or content address. A missing block
// matches both ErrRemote and ErrNotFound under errors.Is. A block too
// large for a single response frame arrives transparently as a chunked
// stream.
func (c *Client) Block(ctx context.Context, name string) (*Block, error) {
	b, err := c.tc.GetBlock(ctx, name)
	if err != nil {
		return nil, wireError(err)
	}
	return b, nil
}

// Blocks fetches many blocks in batched round trips: up to 64 names per
// request frame instead of one round trip per block. The result aligns
// with names; a name the server cannot resolve yields a nil entry (partial
// results are not an error). A block too large for a batch frame
// arrives as a chunked stream.
func (c *Client) Blocks(ctx context.Context, names []string) ([]*Block, error) {
	blocks, err := c.tc.GetBlocks(ctx, names)
	if err != nil {
		return nil, wireError(err)
	}
	return blocks, nil
}

// Descriptors fetches only the attribute lists of the named blocks,
// batched, without moving payloads — the paper's cheap queries over
// "relatively small clusters of data (the attributes)". Unresolvable
// names are absent from the result map.
func (c *Client) Descriptors(ctx context.Context, names []string) (map[string]AttrList, error) {
	descs, err := c.tc.GetDescriptors(ctx, names)
	if err != nil {
		return nil, wireError(err)
	}
	return descs, nil
}

// PutBlock stores a block on the server, returning its content address.
func (c *Client) PutBlock(ctx context.Context, b *Block) (string, error) {
	id, err := c.tc.PutBlock(ctx, b)
	if err != nil {
		return "", wireError(err)
	}
	return id, nil
}

// List returns the names of documents the server offers, sorted.
func (c *Client) List(ctx context.Context) ([]string, error) {
	names, err := c.tc.ListDocs(ctx)
	if err != nil {
		return nil, wireError(err)
	}
	return names, nil
}
