// Package cmif is the public face of the CMIF reproduction: one importable,
// context-aware surface over the whole pipeline of "A Structure for
// Transportable, Dynamic Multimedia Documents" (Bulterman, van Rossum,
// van Liere — USENIX 1991).
//
// The paper's central claim is that "the provision of a central document
// description is essential if information is to be shared cleanly among
// disjoint manipulation tools". This package is that central description's
// programmatic form: every manipulation tool — authoring, validation,
// scheduling, presentation mapping, constraint filtering, playback
// simulation, interchange — works through the same handful of types.
//
//   - Decode / Parse / Open read documents with automatic text-vs-binary
//     detection; Encode writes either form, selected by functional options.
//   - Document wraps a decoded tree with validation, editing and attribute
//     accessors.
//   - RunPipeline runs the target-system-dependent stages under a
//     context.Context, configured with functional options.
//   - Client and Serve speak the interchange protocol with cancellation
//     and deadlines threaded down to the wire. A Client asks for
//     documents and blocks over one multiplexed connection. Documents
//     cross it in the binary encoding a server keeps for each
//     registration; the text form stays the interchange form of files
//     and cmifc.
//   - A Fetcher — a Client (dialed to an origin, an edge or a cluster
//     node), a ClusterClient or a Chain of them — is where a tool gets
//     its blocks from; PrefetchVia and WithFetcher read through any of
//     them.
//
// Errors escaping this package belong to a small taxonomy (ErrNotFound,
// ErrBadFormat, ErrRemote, ErrBusy, ErrUnsupported, ErrConflict,
// *ValidationError) and are matched with errors.Is / errors.As. See
// README.md for a quickstart.
package cmif

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"

	"repro/internal/codec"
	"repro/internal/core"
)

// Format identifies one of the two transportable document encodings.
type Format int

const (
	// FormatAuto asks Decode to detect the format from the bytes.
	FormatAuto Format = iota
	// FormatText is the human-readable parenthesized form of Figure 5.
	FormatText
	// FormatBinary is the compact tag/varint form used when the
	// human-readable property is not needed.
	FormatBinary
)

// String names the format.
func (f Format) String() string {
	switch f {
	case FormatAuto:
		return "auto"
	case FormatText:
		return "text"
	case FormatBinary:
		return "binary"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// DetectFormat inspects data and reports which encoding it carries. Text
// documents begin with '(' (after whitespace); binary documents begin with
// the binary codec's magic header. Anything else reports FormatAuto and an
// ErrBadFormat error.
func DetectFormat(data []byte) (Format, error) {
	if codec.IsBinary(data) {
		return FormatBinary, nil
	}
	for _, b := range data {
		switch b {
		case ' ', '\t', '\r', '\n':
			continue
		case '(', ';': // a document or a leading comment
			return FormatText, nil
		default:
			return FormatAuto, badFormat(fmt.Errorf("cmif: unrecognized leading byte %q", b))
		}
	}
	return FormatAuto, badFormat(fmt.Errorf("cmif: empty input"))
}

// Decode reads one complete document from data, auto-detecting the text or
// binary format (override with WithFormat). Malformed input errors match
// ErrBadFormat under errors.Is.
func Decode(data []byte, opts ...CodecOption) (*Document, error) {
	cfg := codecConfig{format: FormatAuto}
	for _, o := range opts {
		o(&cfg)
	}
	format := cfg.format
	if format == FormatAuto {
		var err error
		if format, err = DetectFormat(data); err != nil {
			return nil, err
		}
	}
	var d *core.Document
	var err error
	switch format {
	case FormatText:
		d, err = codec.Parse(string(data))
	case FormatBinary:
		d, err = codec.DecodeBinary(data)
	default:
		return nil, badFormat(fmt.Errorf("cmif: cannot decode format %v", format))
	}
	if err != nil {
		return nil, badFormat(err)
	}
	return wrapDocument(d), nil
}

// Parse reads one complete document from its text form. It is Decode
// restricted to FormatText, for callers holding a string.
func Parse(src string) (*Document, error) {
	return Decode([]byte(src), WithFormat(FormatText))
}

// DecodeFrom is Decode over an io.Reader.
func DecodeFrom(r io.Reader, opts ...CodecOption) (*Document, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("cmif: read: %w", err)
	}
	return Decode(data, opts...)
}

// Open reads the document stored at path, auto-detecting its format. A
// missing file matches ErrNotFound under errors.Is.
func Open(path string, opts ...CodecOption) (*Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, tag(err, ErrNotFound)
		}
		return nil, err
	}
	return Decode(data, opts...)
}

// Encode serializes the document. The default is the conventional indented
// text form; select others with WithFormat(FormatBinary) or
// WithEmbeddedForm.
func Encode(d *Document, opts ...CodecOption) ([]byte, error) {
	return encodeNode(d.doc.Root, opts)
}

// EncodeFragment serializes a bare node tree (a document fragment, e.g. a
// presentation map travelling separately from its document) under the same
// options as Encode.
func EncodeFragment(n *Node, opts ...CodecOption) ([]byte, error) {
	return encodeNode(n, opts)
}

// ParseFragment parses a single node tree without document-level
// dictionary decoding.
func ParseFragment(src string) (*Node, error) {
	n, err := codec.ParseNode(src)
	if err != nil {
		return nil, badFormat(err)
	}
	return n, nil
}

func encodeNode(n *core.Node, opts []CodecOption) ([]byte, error) {
	cfg := codecConfig{format: FormatText}
	for _, o := range opts {
		o(&cfg)
	}
	switch cfg.format {
	case FormatText, FormatAuto:
		var wo codec.WriteOptions
		if cfg.embedded {
			wo.Form = codec.Embedded
		}
		s, err := codec.EncodeNode(n, wo)
		if err != nil {
			return nil, err
		}
		return []byte(s), nil
	case FormatBinary:
		return codec.EncodeBinaryNode(n)
	default:
		return nil, fmt.Errorf("cmif: cannot encode format %v", cfg.format)
	}
}

// EncodeTo writes the serialized document to w.
func EncodeTo(w io.Writer, d *Document, opts ...CodecOption) error {
	data, err := Encode(d, opts...)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// codecConfig collects the codec options.
type codecConfig struct {
	format   Format
	embedded bool
}

// CodecOption configures Decode, Open, Encode and their variants.
type CodecOption func(*codecConfig)

// WithFormat forces a specific encoding instead of auto-detection (Decode)
// or the text default (Encode).
func WithFormat(f Format) CodecOption {
	return func(c *codecConfig) { c.format = f }
}

// WithEmbeddedForm selects the compact single-line text rendering
// (Figure 5b) instead of the conventional indented form. It only affects
// text encoding.
func WithEmbeddedForm() CodecOption {
	return func(c *codecConfig) { c.embedded = true }
}
