// Package media implements CMIF data blocks and data descriptors (Figure 2
// of the paper) together with synthetic capture tools standing in for the
// paper's hardware-backed Media Block Capture Tools.
//
// "Data blocks contain data that is typically associated with a single
// medium ... The fundamental property that a data block has is atomicity."
// "Data block descriptors are collections of attributes that describe the
// nature of the data block ... Example attributes may be structure
// information on the data block (its format, its resolution, its length,
// the resources required to support it, etc.)"
//
// Substitution note: payloads are deterministic synthetic bytes.
// CMIF tools never interpret payloads — only descriptor attributes flow
// through the pipeline — so synthetic blocks exercise exactly the same code
// paths as captured media.
package media

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attr"
	"repro/internal/chunker"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/units"
)

// Block is one atomic single-medium data block plus its descriptor.
//
// Ownership: a *Block is an immutable value from the moment it is handed
// to a store, a cache or the wire. Stores and caches keep and return the
// very pointer they were given, so nobody writes its Payload, Descriptor
// or Name again. A variant is made with WithName (shallow: shares payload
// and descriptor) or with Clone, the one deep copy, for a caller that
// goes on to mutate. Operations that derive new content (ops.go) build a
// new block and leave their input alone.
//
// The descriptor's text form is part of that value: DescriptorText
// encodes it on first use and keeps the slice, so a block is encoded at
// most once however many responses, journal records, replication frames
// and disk files carry it. A constructor may still edit Descriptor before
// the block is handed on (ops.go does); after the first DescriptorText
// call nobody may.
type Block struct {
	// ID is the content address (hex SHA-256 of medium and payload), or
	// empty on a block an operation derived (ops.go): nothing looks a
	// derived block up by address, so none is computed until Address
	// asks for it.
	ID string
	// Name is the human-oriented identifier used by "file" attributes.
	Name string
	// Medium classifies the payload.
	Medium core.Medium
	// Payload is the raw data. Never interpreted by document tools.
	Payload []byte
	// Descriptor carries the block's attributes.
	Descriptor attr.List

	// derivation keys a derived block in a store (Store.PutDerived): its
	// source's key followed by the operations applied, never a content
	// address. Empty on a block that carries its ID.
	derivation string

	descOnce sync.Once
	descText []byte
	descErr  error

	// cuts is Cuts' memo: nil until the first call, or until SetCuts
	// hands over cuts the caller already holds.
	cuts atomic.Pointer[[]chunker.Cut]
}

// Standard descriptor attribute names.
const (
	// DescFormat is the encoding format identifier (e.g. "gray8",
	// "pcm8", "utf8"). The paper encourages carrying well-accepted
	// format names even though formats are orthogonal to CMIF.
	DescFormat = "format"
	// DescDuration is the intrinsic presentation length.
	DescDuration = "duration"
	// DescWidth and DescHeight give raster dimensions.
	DescWidth  = "width"
	DescHeight = "height"
	// DescFrameRate and DescSampleRate carry media rates.
	DescFrameRate  = "framerate"
	DescSampleRate = "samplerate"
	// DescFrames and DescSamples count media units.
	DescFrames  = "frames"
	DescSamples = "samples"
	// DescBytes is the payload size.
	DescBytes = "bytes"
	// DescColorBits is bits per pixel (color depth).
	DescColorBits = "colorbits"
	// DescResources lists resource requirements (IDs) the paper mentions.
	DescResources = "resources"
	// DescTitle is a human-readable title.
	DescTitle = "title"
	// DescLang is a language tag for text blocks.
	DescLang = "lang"
)

// IsContentAddress reports whether s has the form ContentAddress
// returns: 64 lowercase hex digits. A name of that form names only the
// block with that address (Store.Put refuses any other), so a fetch by
// such a key is answered by bytes that hash to it or not at all.
func IsContentAddress(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ContentAddress returns the content address a block with this medium and
// payload would carry — what NewBlock fills into ID. The durability layer
// uses it to verify replayed records without paying NewBlock's descriptor
// clone.
func ContentAddress(m core.Medium, payload []byte) string { return computeID(m, payload) }

// computeID returns the content address for a payload.
func computeID(m core.Medium, payload []byte) string {
	h := sha256.New()
	h.Write([]byte(m.String()))
	h.Write([]byte{0})
	h.Write(payload)
	return hex.EncodeToString(h.Sum(nil))
}

// NewBlock builds a block, computing its content address and filling the
// universal descriptor attributes (bytes, format defaulting by medium).
func NewBlock(name string, m core.Medium, payload []byte, desc attr.List) *Block {
	b := newBlock(name, m, payload, desc)
	b.ID = computeID(m, payload)
	return b
}

// derive builds the block an operation makes from src: named and keyed
// by src's name and key with op appended, with NewBlock's descriptor
// defaults and no content address.
func derive(src *Block, op string, m core.Medium, payload []byte) *Block {
	b := newBlock(src.Name+op, m, payload, src.Descriptor)
	b.derivation = src.key() + op
	return b
}

func newBlock(name string, m core.Medium, payload []byte, desc attr.List) *Block {
	b := &Block{Name: name, Medium: m, Payload: payload, Descriptor: desc.Clone()}
	b.Descriptor.Set(DescBytes, attr.Number(int64(len(payload))))
	b.Descriptor.SetDefault(DescFormat, attr.ID(defaultFormat(m)))
	return b
}

// Address returns the block's content address: ID, or for a derived
// block the hash of its bytes, computed on every call.
func (b *Block) Address() string {
	if b.ID != "" {
		return b.ID
	}
	return computeID(b.Medium, b.Payload)
}

// key is what a store keys b by: its ID, else its derivation, else (a
// block built by hand without either) its address.
func (b *Block) key() string {
	switch {
	case b.ID != "":
		return b.ID
	case b.derivation != "":
		return b.derivation
	}
	return b.Address()
}

func defaultFormat(m core.Medium) string {
	switch m {
	case core.MediumVideo:
		return "gray8-frames"
	case core.MediumAudio:
		return "pcm8"
	case core.MediumImage:
		return "gray8"
	case core.MediumGraphic:
		return "strokes"
	default:
		return "utf8"
	}
}

// Duration returns the block's intrinsic presentation length from its
// descriptor, resolved with the block's own rates.
func (b *Block) Duration() (time.Duration, bool) {
	v, ok := b.Descriptor.Get(DescDuration)
	if !ok {
		return 0, false
	}
	q, ok := v.AsNumber()
	if !ok {
		return 0, false
	}
	d, err := b.Resolver().Duration(q)
	if err != nil {
		return 0, false
	}
	return d, true
}

// Resolver builds a unit resolver from the descriptor's rate attributes.
func (b *Block) Resolver() *units.Resolver {
	var r units.Rates
	if n, ok := b.Descriptor.GetInt(DescFrameRate); ok {
		r.FrameRate = n
	}
	if n, ok := b.Descriptor.GetInt(DescSampleRate); ok {
		r.SampleRate = n
	}
	return units.NewResolver(r)
}

// Width and Height return raster dimensions (0 when absent).
func (b *Block) Width() int64 {
	n, _ := b.Descriptor.GetInt(DescWidth)
	return n
}

// Height returns the raster height (0 when absent).
func (b *Block) Height() int64 {
	n, _ := b.Descriptor.GetInt(DescHeight)
	return n
}

// Frames returns the frame count for video blocks (0 when absent).
func (b *Block) Frames() int64 {
	n, _ := b.Descriptor.GetInt(DescFrames)
	return n
}

// Samples returns the sample count for audio blocks (0 when absent).
func (b *Block) Samples() int64 {
	n, _ := b.Descriptor.GetInt(DescSamples)
	return n
}

// ColorBits returns the color depth (8 when absent, matching the synthetic
// generators).
func (b *Block) ColorBits() int64 {
	if n, ok := b.Descriptor.GetInt(DescColorBits); ok {
		return n
	}
	return 8
}

// Verify recomputes the content address the block carries (a derived
// block carries none) and checks descriptor/payload agreement; used after
// transport and by property tests.
func (b *Block) Verify() error {
	if b.ID != "" && computeID(b.Medium, b.Payload) != b.ID {
		return fmt.Errorf("media: block %q content address mismatch", b.Name)
	}
	if n, ok := b.Descriptor.GetInt(DescBytes); ok && n != int64(len(b.Payload)) {
		return fmt.Errorf("media: block %q bytes attribute %d != payload %d",
			b.Name, n, len(b.Payload))
	}
	return nil
}

// PayloadReader exposes the payload for random or streaming access
// without copying it: *bytes.Reader implements io.Reader, io.ReaderAt,
// io.Seeker and io.WriterTo, so stream senders can io.Copy straight
// from a payload into a connection.
func (b *Block) PayloadReader() *bytes.Reader { return bytes.NewReader(b.Payload) }

// WithName returns the block under another name: b itself when the name
// already matches, otherwise a shallow copy sharing b's payload and
// descriptor — how a block is re-registered without touching the
// original.
func (b *Block) WithName(name string) *Block {
	if b.Name == name {
		return b
	}
	nb := &Block{ID: b.ID, Name: name, Medium: b.Medium, Payload: b.Payload, Descriptor: b.Descriptor,
		derivation: b.derivation}
	nb.cuts.Store(b.cuts.Load())
	return nb
}

// Cuts returns the payload's content-defined chunks (chunker.Cuts),
// computed on the first call and kept, so a block is cut at most once
// however many responses carry it; callers must not modify the slice.
// Each cut's hash is chunker's hash of its bytes, as SetCuts requires:
// the edge disk cache names chunk files and the durable log chunk
// records by them. Whoever reuses bytes found by a cut's hash still
// compares the bytes first.
func (b *Block) Cuts() []chunker.Cut {
	if p := b.cuts.Load(); p != nil {
		return *p
	}
	cuts := chunker.Cuts(b.Payload)
	b.cuts.CompareAndSwap(nil, &cuts)
	return *b.cuts.Load()
}

// SetCuts hands Cuts cuts the caller already holds for the payload — a
// chunk manifest of chunker.Cuts it read the payload back from, or
// another copy's — so the block is not cut again. They are kept only
// when no memo exists yet and their lengths tile the payload exactly.
// Their hashes are not checked, so the caller vouches for them.
func (b *Block) SetCuts(cuts []chunker.Cut) {
	total := 0
	for _, c := range cuts {
		if c.Len <= 0 {
			return
		}
		total += c.Len
	}
	if total == len(b.Payload) && len(cuts) > 0 {
		b.cuts.CompareAndSwap(nil, &cuts)
	}
}

// CutsKept reports whether the block holds its cuts, without computing
// them: tests use it to prove a path cut nothing.
func (b *Block) CutsKept() bool { return b.cuts.Load() != nil }

// DescriptorText returns EncodeDescriptor(b.Descriptor), encoded on the
// first call and kept: every later call, from any goroutine, returns the
// same slice, which callers must not modify.
func (b *Block) DescriptorText() ([]byte, error) {
	b.descOnce.Do(func() { b.descText, b.descErr = EncodeDescriptor(b.Descriptor) })
	return b.descText, b.descErr
}

// EncodeDescriptor renders a descriptor in its text form, the embedded
// CMIF fragment "(ext (bytes 11) (format utf8))" that block heads on the
// wire, durable records and edge disk files carry. It fails when an
// attribute cannot be written (a name such as "seq" that collides with a
// node type, or one that is not an identifier); a caller refuses the
// block rather than ship it with another descriptor.
func EncodeDescriptor(desc attr.List) ([]byte, error) {
	n := core.NewExt()
	n.Attrs = desc // read only: the writer does not mutate it
	text, err := codec.EncodeNode(n, codec.WriteOptions{Form: codec.Embedded})
	if err != nil {
		return nil, err
	}
	return []byte(text), nil
}

// ParseDescriptor inverts EncodeDescriptor. It returns the attributes of
// the one node text holds; the list is the caller's.
func ParseDescriptor(text []byte) (attr.List, error) {
	n, err := codec.ParseNode(string(text))
	if err != nil {
		return attr.List{}, err
	}
	return n.Attrs, nil
}

// Clone deep-copies the block: the explicit copy for a caller that means
// to mutate the result. Nothing on the store, cache or wire path calls it.
func (b *Block) Clone() *Block {
	return &Block{
		ID:         b.ID,
		Name:       b.Name,
		Medium:     b.Medium,
		Payload:    append([]byte(nil), b.Payload...),
		Descriptor: b.Descriptor.Clone(),
		derivation: b.derivation,
	}
}

// String summarizes the block.
func (b *Block) String() string {
	return fmt.Sprintf("%s %s (%d bytes)", b.Medium, b.Name, len(b.Payload))
}
