package media

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// storeShards is the lock-stripe count. A power of two keeps the modulo a
// mask; 16 stripes is enough that 16 concurrent clients rarely collide on a
// mutex while keeping the per-store footprint trivial.
const storeShards = 16

// shardOf maps a key to its stripe by FNV-1a.
func shardOf(key string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(key))
	return h.Sum32() & (storeShards - 1)
}

// blockShard holds the blocks whose content address hashes to one stripe.
type blockShard struct {
	mu   sync.RWMutex
	byID map[string]*Block
}

// nameShard holds the name registrations that hash to one stripe. Names and
// ids stripe independently: a name and the id it points to usually live in
// different shards, and no operation ever holds a block-shard lock and a
// name-shard lock at the same time.
type nameShard struct {
	mu     sync.RWMutex
	byName map[string]string // name -> id
}

// Journal observes store mutations once attached with SetJournal. The
// durability layer (internal/durable) implements it to write-ahead-log
// every change; hooks fire only for mutations that changed state, so
// idempotent re-puts of an already-stored corpus journal nothing.
//
// Hooks run while the mutated shard's lock is held: puts and deletes of
// one id reach the journal in block-map order, and every name
// registration — initial or re-point — journals as its own record inside
// the name-shard critical section, strictly after its block's put record
// (same goroutine). Recovery therefore can never resurrect a deleted
// block, unwind a re-point, or lose a registration to a concurrently
// compacting snapshot. (The cost: under an fsync-per-record journal
// policy, readers of the mutated shard wait out the fsync.)
type Journal interface {
	// JournalPutBlock records a block entering the store; the name
	// registration, if any, journals separately.
	JournalPutBlock(b *Block)
	// JournalDeleteBlock records a block delete (names swept with it).
	JournalDeleteBlock(id string)
	// JournalRegisterName records a name being pointed at a block.
	JournalRegisterName(name, id string)
}

// Store is a content-addressed block store with a name registry. It stands
// in for the paper's storage server: external nodes name blocks via their
// "file" attribute, and the store maps those names to descriptors and
// payloads. Safe for concurrent use.
//
// Internally the store is lock-striped: blocks shard by FNV of their
// content address and name registrations by FNV of the name, so concurrent
// readers and writers touching different blocks do not contend on a single
// mutex (the serialization the scaled-up storage server must avoid).
//
// The store holds blocks and names and nothing derived from them: the
// chunk form of a payload is kept by whoever writes chunks — a durable
// snapshot, the edge disk cache — not here (dedupe.go).
type Store struct {
	blocks [storeShards]blockShard
	names  [storeShards]nameShard

	journal Journal
}

// SetJournal attaches a mutation journal. Attach before serving: the call
// itself is not synchronized against concurrent mutations.
func (s *Store) SetJournal(j Journal) { s.journal = j }

// NewStore returns an empty store.
func NewStore() *Store {
	s := &Store{}
	for i := range s.blocks {
		s.blocks[i].byID = make(map[string]*Block)
	}
	for i := range s.names {
		s.names[i].byName = make(map[string]string)
	}
	return s
}

// Put inserts a block, registering its name, and returns its content
// address. The store keeps b itself (see Block: immutable once handed
// over; sharing one descriptor across many blocks is fine). Re-putting
// identical content is idempotent; re-using a name for different content
// re-points the name. Put reads the payload only of a derived block,
// which carries no address: it keeps a shallow copy named by the hash of
// its bytes instead (PutDerived does not hash). A name in content-address
// form that is not the block's own address is refused with an
// *AddressNameError, and nothing is stored.
func (s *Store) Put(b *Block) (string, error) {
	if b.ID == "" {
		b = &Block{ID: b.Address(), Name: b.Name, Medium: b.Medium, Payload: b.Payload, Descriptor: b.Descriptor}
	}
	if err := CheckName(b.Name, b.ID); err != nil {
		return "", err
	}
	return s.put(b.ID, b, true), nil
}

// AddressNameError reports a name in content-address form
// (IsContentAddress) offered for a block with another address. A store
// that registered it would answer a fetch by that address with other
// bytes, so it refuses: an address names only its own content.
type AddressNameError struct {
	Name string // the address-shaped name
	ID   string // the content address of the block it was offered for
}

func (e *AddressNameError) Error() string {
	return fmt.Sprintf("media: name %s has the form of a content address but names block %s", e.Name, e.ID)
}

// CheckName refuses name for the block at id when it has the form of
// another content address: an address names only its own block.
func CheckName(name, id string) error {
	if name != id && IsContentAddress(name) {
		return &AddressNameError{Name: name, ID: id}
	}
	return nil
}

// PutDerived inserts a block as Put does but never hashes it: a derived
// block (ops.go) is kept under its derivation — its source's key and the
// operations applied — which no content address equals, so Get by
// address never reaches it. Two names derived the same way from one
// source share one entry, as equal content does under Put. It returns
// the key. Any other block, or any block put into a journaled store,
// takes Put's path. A derived block is registered under whatever name a
// document gave its source: no fetch by address reaches a derived store.
func (s *Store) PutDerived(b *Block) (string, error) {
	if b.derivation == "" || s.journal != nil {
		return s.Put(b)
	}
	return s.put(b.derivation, b, true), nil
}

// PutReplayed is Put for WAL and snapshot replay: b.Name does not enter
// the name registry, which replay rebuilds from its own records, in
// mutation order. Everything else uses Put.
func (s *Store) PutReplayed(b *Block) string { return s.put(b.ID, b, false) }

// put keeps b under key, registering b.Name when register is set.
func (s *Store) put(key string, b *Block, register bool) string {
	bs := &s.blocks[shardOf(key)]
	bs.mu.Lock()
	_, existed := bs.byID[key]
	if !existed {
		bs.byID[key] = b
		// Journaled under the block-shard lock: puts and deletes of one
		// id reach the journal in map order (see Journal).
		if s.journal != nil {
			s.journal.JournalPutBlock(b)
		}
	}
	bs.mu.Unlock()
	if register && b.Name != "" {
		ns := &s.names[shardOf(b.Name)]
		ns.mu.Lock()
		if prev, ok := ns.byName[b.Name]; !ok || prev != key {
			ns.byName[b.Name] = key
			// Every registration journals as its own record inside this
			// critical section — never inside the put record — so a
			// snapshot racing this put either sees the registration in
			// its name capture or finds the record in the un-compacted
			// tail; the registration cannot fall between.
			if s.journal != nil {
				s.journal.JournalRegisterName(b.Name, key)
			}
		}
		ns.mu.Unlock()
		// A concurrent Delete of this id may have swept the name shards
		// before the registration above landed. Re-check the block and
		// roll the name back if it is gone, so no name ever dangles:
		// whichever of this re-check and the delete's sweep runs last
		// removes the registration. The journal stays consistent without
		// extra help: the delete's record was appended after this put's
		// (block-shard order), so replay also puts, then sweeps.
		bs.mu.RLock()
		_, alive := bs.byID[key]
		bs.mu.RUnlock()
		if !alive {
			ns.mu.Lock()
			if ns.byName[b.Name] == key {
				delete(ns.byName, b.Name)
			}
			ns.mu.Unlock()
		}
	}
	return key
}

// RegisterName points name at an already-stored block's content address.
// It reports false when no block with that id exists, when name is empty,
// or when name has the form of another content address (CheckName), and
// then registers nothing. It replays what a journal or a replica
// recorded: Put is where a name enters a store.
func (s *Store) RegisterName(name, id string) bool {
	if name == "" || CheckName(name, id) != nil {
		return false
	}
	bs := &s.blocks[shardOf(id)]
	bs.mu.RLock()
	_, ok := bs.byID[id]
	bs.mu.RUnlock()
	if !ok {
		return false
	}
	ns := &s.names[shardOf(name)]
	ns.mu.Lock()
	if ns.byName[name] != id {
		ns.byName[name] = id
		if s.journal != nil {
			s.journal.JournalRegisterName(name, id)
		}
	}
	ns.mu.Unlock()
	return true
}

// Get fetches a block by content address. The result is the stored
// pointer: read it, hand its payload to a vectored write, keep it as long
// as needed — never modify it.
func (s *Store) Get(id string) (*Block, bool) {
	bs := &s.blocks[shardOf(id)]
	bs.mu.RLock()
	b, ok := bs.byID[id]
	bs.mu.RUnlock()
	return b, ok
}

// GetRef forwards to Get. It survives only because the frozen bench/
// module still calls it; the next benchmark PR drops it.
func (s *Store) GetRef(id string) (*Block, bool) { return s.Get(id) }

// GetByName fetches a block by registered name (the "file" attribute value).
func (s *Store) GetByName(name string) (*Block, bool) {
	id, ok := s.Resolve(name)
	if !ok {
		return nil, false
	}
	return s.Get(id)
}

// Resolve maps a name to its content address.
func (s *Store) Resolve(name string) (string, bool) {
	ns := &s.names[shardOf(name)]
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	id, ok := ns.byName[name]
	return id, ok
}

// Delete removes a block by id and any names pointing at it.
func (s *Store) Delete(id string) bool {
	bs := &s.blocks[shardOf(id)]
	bs.mu.Lock()
	_, ok := bs.byID[id]
	if ok {
		delete(bs.byID, id)
		// Journaled under the block-shard lock, mirroring Put.
		if s.journal != nil {
			s.journal.JournalDeleteBlock(id)
		}
	}
	bs.mu.Unlock()
	if !ok {
		return false
	}
	for i := range s.names {
		ns := &s.names[i]
		ns.mu.Lock()
		for name, nid := range ns.byName {
			if nid == id {
				delete(ns.byName, name)
			}
		}
		ns.mu.Unlock()
	}
	return true
}

// Each calls fn once per stored block, stopping early when fn returns
// false. The pointers are the stored blocks themselves (read-only, like
// Get's). They are collected shard-by-shard under the read lock and fn
// runs outside it, so slow consumers (snapshot writers) do not stall
// writers.
func (s *Store) Each(fn func(b *Block) bool) {
	for i := range s.blocks {
		bs := &s.blocks[i]
		bs.mu.RLock()
		batch := make([]*Block, 0, len(bs.byID))
		for _, b := range bs.byID {
			batch = append(batch, b)
		}
		bs.mu.RUnlock()
		for _, b := range batch {
			if !fn(b) {
				return
			}
		}
	}
}

// Len reports the number of stored blocks.
func (s *Store) Len() int {
	total := 0
	for i := range s.blocks {
		bs := &s.blocks[i]
		bs.mu.RLock()
		total += len(bs.byID)
		bs.mu.RUnlock()
	}
	return total
}

// Names returns the registered names, sorted.
func (s *Store) Names() []string {
	var out []string
	for i := range s.names {
		ns := &s.names[i]
		ns.mu.RLock()
		for n := range ns.byName {
			out = append(out, n)
		}
		ns.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// TotalBytes sums payload sizes, the figure the paper contrasts with the
// "relatively small clusters of data (the attributes)".
func (s *Store) TotalBytes() int64 {
	var total int64
	for i := range s.blocks {
		bs := &s.blocks[i]
		bs.mu.RLock()
		for _, b := range bs.byID {
			total += int64(len(b.Payload))
		}
		bs.mu.RUnlock()
	}
	return total
}

// VerifyAll checks every stored block's content address.
func (s *Store) VerifyAll() error {
	for i := range s.blocks {
		bs := &s.blocks[i]
		bs.mu.RLock()
		for id, b := range bs.byID {
			if err := b.Verify(); err != nil {
				bs.mu.RUnlock()
				return fmt.Errorf("media: store entry %.12s: %w", id, err)
			}
		}
		bs.mu.RUnlock()
	}
	return nil
}
