package transport

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/media"
)

// Backend is where a Server's answers come from. The server owns
// framing, the hello, admission, metrics and drain; every document,
// block and listing it serves — and every write it acknowledges — goes
// through this one seam, so the protocol is the same whatever stands
// behind it. Three backends exist: *Registry is the origin (local state,
// optionally journaled), and edge.Edge and cluster.Node embed the
// *Registry they own and override the methods whose miss or write path
// differs. Methods run on request-handler goroutines and may block on
// upstream or peer round trips.
type Backend interface {
	// GetDoc returns the entry registered under name. The entry is
	// shared and immutable: callers read its document and its binary,
	// and clone the document to change it.
	GetDoc(name string) (*Entry, bool)
	// StoreDoc registers a document that arrived over the wire, absorbing
	// any inlined payloads as blocks. A nil error is the acknowledgement:
	// it must not be returned for a write that could be lost.
	StoreDoc(name string, d *core.Document) error
	// SubmitEdit applies an edit batch atomically and returns the new
	// generation. A missing document matches ErrNotFound; a conflict
	// keeps its "conflict:" text.
	SubmitEdit(name string, recs []core.ChangeRecord) (uint64, error)
	// Subscribe registers a watcher on the document under name, its queue
	// seeded with the current snapshot. queueCap bounds the queue (<=0
	// means the default); maxSubs, when positive, bounds subscriptions
	// across the backend.
	Subscribe(name, subtree string, queueCap, maxSubs int) (*Subscriber, error)
	// GetBlock resolves a block by registered name first, then by content
	// address. The block is shared and immutable: callers only read it.
	GetBlock(name string) (*media.Block, bool)
	// StoreBlock stores a block and returns its content address; the
	// acknowledgement rule of StoreDoc applies.
	StoreBlock(b *media.Block) (string, error)
	// ListDocs names the documents on offer, sorted. localOnly restricts
	// the answer to what this process holds — cluster nodes ask each
	// other that way, so a merged listing cannot recurse.
	ListDocs(localOnly bool) []string
}

// PeerOps is the node-to-node half a cluster backend adds. NewServer
// detects it once; on any other backend the three ops answer "not a
// cluster node".
type PeerOps interface {
	// Gossip merges a peer's encoded membership view and returns the
	// local view after the merge. An empty view only reads membership.
	Gossip(view []byte) ([]byte, error)
	// Replicate verifies, appends and applies a batch of framed WAL
	// records shipped by a key's primary.
	Replicate(frames []byte) error
	// Resync returns a chunk of full-state WAL records starting at
	// cursor ("" starts); an empty next cursor ends the walk.
	Resync(cursor string) (frames []byte, next string, err error)
}

// The origin backend: the registry answers from its own state, and a
// write is acknowledged only once the durability layer has it.

// StoreDoc absorbs the document's inlined payloads into the store and
// registers it.
func (r *Registry) StoreDoc(name string, d *core.Document) error {
	extracted, err := Extract(d, r.Store)
	if err != nil {
		return fmt.Errorf("extract: %w", err)
	}
	r.PutDoc(name, extracted)
	return r.durability()
}

// SubmitEdit applies the batch through EditDoc.
func (r *Registry) SubmitEdit(name string, recs []core.ChangeRecord) (uint64, error) {
	gen, err := r.EditDoc(name, recs)
	if err != nil {
		return 0, err
	}
	return gen, r.durability()
}

// GetBlock returns the stored block itself: response parts reference its
// payload directly, and the vectored writer moves it store → conn with no
// intermediate copy.
func (r *Registry) GetBlock(name string) (*media.Block, bool) {
	if blk, ok := r.Store.GetByName(name); ok {
		return blk, true
	}
	return r.Store.Get(name)
}

// StoreBlock puts the block into the store.
func (r *Registry) StoreBlock(b *media.Block) (string, error) {
	id, err := r.Store.Put(b)
	if err != nil {
		return "", err
	}
	return id, r.durability()
}

// ListDocs lists the registered documents; a registry has nothing but
// local ones.
func (r *Registry) ListDocs(localOnly bool) []string { return r.DocNames() }

// durability reports a failed durability layer. A write that reached
// memory but not the log must not be acknowledged: the client would treat
// it as durable, and a restart would disprove that.
func (r *Registry) durability() error {
	if r.DurabilityErr == nil {
		return nil
	}
	if err := r.DurabilityErr(); err != nil {
		return fmt.Errorf("durability: %w", err)
	}
	return nil
}
