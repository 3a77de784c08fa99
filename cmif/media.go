package cmif

import (
	"repro/internal/media"
	"repro/internal/transport"
)

// Store is an in-memory, content-addressed collection of data blocks,
// indexed by both name and content address. Safe for concurrent use.
// Put keeps the block it is given and Get/GetByName return that same
// pointer: nothing is copied in or out (see Block).
type Store = media.Store

// Block is one atomic single-medium data block plus its descriptor. A
// *Block is immutable from the moment it is handed to a Store, a
// cache, a Fetcher's caller or the wire — stores, caches and fetch
// results all share the one pointer, so never write its Payload,
// Descriptor or Name. Make a variant with WithName (shares the payload)
// or with Clone, the one deep copy, before mutating.
type Block = media.Block

// NewStore returns an empty block store.
func NewStore() *Store { return media.NewStore() }

// LoadStoreDir loads an on-disk store (a directory whose manifest is
// itself a CMIF document).
func LoadStoreDir(dir string) (*Store, error) { return media.LoadDir(dir) }

// SaveStoreDir writes the store to dir with a CMIF manifest.
func SaveStoreDir(s *Store, dir string) error { return media.SaveDir(s, dir) }

// --- synthetic capture tools (the paper's Media Block Capture Tools) ---

// CaptureVideo synthesizes a video block of the given frame count,
// dimensions and rate.
func CaptureVideo(name string, frames, w, h int, fps int64, seed uint64) *Block {
	return media.CaptureVideo(name, frames, w, h, fps, seed)
}

// CaptureAudio synthesizes an audio block of ms milliseconds at the given
// sample rate and tone frequency.
func CaptureAudio(name string, ms, rate, freqHz int64, seed uint64) *Block {
	return media.CaptureAudio(name, ms, rate, freqHz, seed)
}

// CaptureImage synthesizes a raster image block.
func CaptureImage(name string, w, h int, seed uint64) *Block {
	return media.CaptureImage(name, w, h, seed)
}

// CaptureGraphic synthesizes a stroke-list graphic block.
func CaptureGraphic(name string, strokes int, seed uint64) *Block {
	return media.CaptureGraphic(name, strokes, seed)
}

// CaptureText wraps a text payload (with its language tag) as a block.
func CaptureText(name, text, lang string) *Block {
	return media.CaptureText(name, text, lang)
}

// --- payload inlining (interchange without a shared storage server) ---

// Inline returns a copy of the document whose external leaves carry their
// payloads immediately, resolved from store. With strict set, unresolvable
// leaves are errors; otherwise they stay external.
func Inline(d *Document, store *Store, strict bool) (*Document, error) {
	out, err := transport.Inline(d.doc, store.GetByName, strict)
	if err != nil {
		return nil, err
	}
	return wrapDocument(out), nil
}

// Extract is Inline's inverse: it absorbs inlined payloads into store and
// re-externalizes the leaves, rebuilding a local block store from a
// self-contained transfer.
func Extract(d *Document, store *Store) (*Document, error) {
	out, err := transport.Extract(d.doc, store)
	if err != nil {
		return nil, err
	}
	return wrapDocument(out), nil
}
