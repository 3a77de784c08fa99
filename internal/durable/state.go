package durable

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/attr"
	"repro/internal/chunker"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/edit"
	"repro/internal/media"
)

// State is the recovered corpus: the block store and the registered
// documents. Open and Load rebuild one by replaying the newest snapshot
// plus the WAL tail, and hand its Docs to the caller. The live log keeps
// a State of its own without Docs: the store, which stays the live
// corpus once the log is attached as its journal, and the bytes that
// rebuild each document.
type State struct {
	Store *media.Store
	Docs  map[string]*core.Document

	// docs holds, per registered document, the bytes that rebuild it, set
	// beside Docs by apply: what a re-put is deduped against and a
	// snapshot or resync folds and writes.
	docs map[string]*docJournal

	// descMemo caches descriptor parses by their text during one
	// recovery: a corpus of same-shaped blocks repeats a handful of
	// descriptor texts thousands of times, and re-parsing each one
	// would dominate recovery. Consumers clone before mutating, so
	// sharing the parsed list is safe. Released with replayChunks;
	// nil afterwards, so replicated records parse without it.
	descMemo map[string]attr.List

	// replayChunks stages recChunk records (snapshot-only) so the
	// recPutBlkC records that follow can reassemble their payloads.
	// Populated lazily during snapshot replay, released by recovery once
	// all files are replayed — it holds one copy of each unique chunk,
	// transiently doubling their footprint, and must not outlive replay.
	replayChunks map[ChunkHash][]byte
}

// docJournal is what the log keeps of one document: base, the encoding of
// its last recPutDoc, and tail, the encoded recEditDoc batches appended
// since. An edit appends to the tail; a put or a fold replaces the whole
// docJournal, so a fold that finds it replaced knows its base is gone.
type docJournal struct {
	base      []byte
	tail      [][]byte
	tailBytes int  // the tail's batch bytes
	folding   bool // a background fold runs until the tail no longer outweighs base
}

// ChunkHash mirrors media.ChunkHash for the snapshot chunk records.
type ChunkHash = media.ChunkHash

func newState() *State {
	return &State{
		Store:    media.NewStore(),
		Docs:     make(map[string]*core.Document),
		docs:     make(map[string]*docJournal),
		descMemo: make(map[string]attr.List),
	}
}

// parseDesc is media.ParseDescriptor with the replay memo, while there
// is one, in front.
func (st *State) parseDesc(data []byte) (attr.List, error) {
	if st.descMemo == nil {
		return media.ParseDescriptor(data)
	}
	if cached, ok := st.descMemo[string(data)]; ok {
		return cached, nil
	}
	desc, err := media.ParseDescriptor(data)
	if err != nil {
		return attr.List{}, err
	}
	st.descMemo[string(data)] = desc
	return desc, nil
}

// mutation is one verified record: the change it makes, decoded and
// checked but not yet applied. A block's address check, and a chunked
// block's payload join, may still run on the caller's addrChecker. It
// owns its bytes — nothing in it aliases the record it came from.
type mutation struct {
	op byte
	// key is the document name (document ops), the block's content
	// address (recDelBlk) or the registry name (recName).
	key string
	// id is the content address a recName points key at.
	id    string
	doc   *core.Document      // recPutDoc
	data  []byte              // recPutDoc: doc's binary; recEditDoc: the batch; recChunk: the chunk
	edits []core.ChangeRecord // recEditDoc
	block *media.Block        // recPutBlk, recPutBlkC
	chunk ChunkHash           // recChunk
}

// replicates reports whether op may travel in a replication or resync
// batch: the four full-state ops, which are safe to apply twice.
func replicates(op byte) bool {
	return op == recPutDoc || op == recPutBlk || op == recDelBlk || op == recName
}

// verifyReplicated is verify for a record a peer shipped: its op must
// replicate, and a name registration must keep the address rule
// (media.CheckName), as a block record must keep its address. Recovery
// skips such a registration instead (Store.RegisterName refuses it): a
// log written before the rule may hold one.
func (st *State) verifyReplicated(r Record, chk *addrChecker, pos int64) (mutation, error) {
	if !replicates(r.Op) {
		return mutation{}, fmt.Errorf("op %d does not replicate", r.Op)
	}
	m, err := st.verify(r.Op, r.Fields, false, chk, pos)
	if err == nil && m.op == recName {
		err = media.CheckName(m.key, m.id)
	}
	return m, err
}

// wantFields checks a record's field count.
func wantFields(op byte, fields [][]byte, n int) error {
	if len(fields) != n {
		return fmt.Errorf("op %d: want %d fields, got %d", op, n, len(fields))
	}
	return nil
}

// verify checks one decoded record — its field count, register flag,
// descriptor and document binary — and returns the mutation it makes.
// kept says the record's bytes are the caller's to give away: a block
// payload or chunk then stays in them instead of being copied out.
// A block record's content address is compared on chk, beside the
// caller's loop, as the check of the record at pos: the caller waits on
// chk before it reports, commits or reads a payload. It reads only the record
// (and, for recPutBlkC, the chunks staged before it), so replication
// verifies a batch without the log's lock. Arbitrary bytes must never
// panic, only fail (the fuzzed guarantee).
func (st *State) verify(op byte, fields [][]byte, kept bool, chk *addrChecker, pos int64) (m mutation, err error) {
	m.op = op
	switch op {
	case recPutDoc:
		if err := wantFields(op, fields, 2); err != nil {
			return m, err
		}
		m.key = string(fields[0])
		// The binary outlives the record as the document's base.
		m.data = detach(fields[1], kept)
		if m.doc, err = codec.DecodeBinary(m.data); err != nil {
			return m, fmt.Errorf("putdoc %q: %w", fields[0], err)
		}
	case recEditDoc:
		if err := wantFields(op, fields, 2); err != nil {
			return m, err
		}
		m.key = string(fields[0])
		if m.edits, err = core.DecodeChangeRecords(fields[1]); err != nil {
			return m, fmt.Errorf("editdoc %q: %w", fields[0], err)
		}
		m.data = detach(fields[1], kept)
	case recDelBlk:
		if err := wantFields(op, fields, 1); err != nil {
			return m, err
		}
		m.key = string(fields[0])
	case recPutBlk, recPutBlkC:
		if err := wantFields(op, fields, 6); err != nil {
			return m, err
		}
		if len(fields[5]) != 1 || fields[5][0] != 0 {
			return m, fmt.Errorf("op %d: register flag %v, want 0", op, fields[5])
		}
		var payload []byte
		var chunks [][]byte // recPutBlkC: the staged chunks chk joins into the payload
		size := len(fields[4])
		if op == recPutBlk {
			payload = detach(fields[4], kept)
		} else if chunks, size, err = st.stagedChunks(fields[4]); err != nil {
			return m, fmt.Errorf("putblkc %q: %w", fields[1], err)
		}
		if m.block, err = st.blockFromParts(fields[0], fields[1], fields[2], fields[3], size); err != nil {
			return m, fmt.Errorf("op %d %q: %w", op, fields[1], err)
		}
		m.block.Payload = payload
		chk.check(pos, op, m.block, chunks)
	case recChunk:
		if err := wantFields(op, fields, 2); err != nil {
			return m, err
		}
		if len(fields[0]) != chunker.HashSize {
			return m, fmt.Errorf("chunk: bad hash length %d", len(fields[0]))
		}
		copy(m.chunk[:], fields[0])
		// Detached, not hashed: the staged copy is shared by every block
		// manifest that references it, and each such block's content
		// address covers its bytes.
		m.data = detach(fields[1], kept)
	case recName:
		if err := wantFields(op, fields, 2); err != nil {
			return m, err
		}
		m.key, m.id = string(fields[0]), string(fields[1])
	default:
		return m, fmt.Errorf("unknown record op %d", op)
	}
	return m, nil
}

// detach returns field as bytes the state may keep: field itself when
// the record's buffer is the caller's to give away (kept), else a copy.
func detach(field []byte, kept bool) []byte {
	if kept {
		return field
	}
	return bytes.Clone(field)
}

// apply makes a verified mutation part of the state — the one step
// recovery, replication and a fold run. Only an edit can fail: its
// document must be registered, and the batch must apply to it. A state
// without Docs (the live log's) keeps only a document's bytes.
func (st *State) apply(m mutation) error {
	switch m.op {
	case recPutDoc:
		st.docs[m.key] = &docJournal{base: m.data}
		if st.Docs != nil {
			st.Docs[m.key] = m.doc
		}
	case recEditDoc:
		d, ok := st.Docs[m.key]
		if !ok {
			return fmt.Errorf("editdoc %q: no such document", m.key)
		}
		if err := edit.Apply(d, m.edits); err != nil {
			return fmt.Errorf("editdoc %q: %w", m.key, err)
		}
		// Nothing schedules the state's documents: the applied records'
		// change log, and the removed subtrees it holds, can go.
		d.TrimChanges()
		db := st.docs[m.key]
		db.tail, db.tailBytes = append(db.tail, m.data), db.tailBytes+len(m.data)
	case recPutBlk, recPutBlkC:
		st.Store.PutReplayed(m.block)
	case recDelBlk:
		st.Store.Delete(m.key)
	case recChunk:
		if st.replayChunks == nil {
			st.replayChunks = make(map[ChunkHash][]byte)
		}
		st.replayChunks[m.chunk] = m.data
	case recName:
		// Best-effort: a registration whose block a later-journaled (but
		// racing) delete already removed skips silently — the live store
		// rolled the same registration back, so skipping converges on
		// the pre-crash state. So does one of an address-shaped name for
		// another block, which no store registers any more.
		st.Store.RegisterName(m.key, m.id)
	}
	return nil
}

// holds reports whether the state already has a replicated mutation's
// effect — the same document bytes, a block already stored under its
// content address, a block already gone, a name already pointing at the
// id — so appending it again would change nothing.
func (st *State) holds(m mutation) bool {
	switch m.op {
	case recPutDoc:
		cur := st.docs[m.key]
		return cur != nil && len(cur.tail) == 0 && bytes.Equal(cur.base, m.data)
	case recPutBlk:
		_, ok := st.Store.Get(m.block.ID)
		return ok
	case recDelBlk:
		_, ok := st.Store.Get(m.key)
		return !ok
	case recName:
		cur, ok := st.Store.Resolve(m.key)
		return ok && cur == m.id
	}
	return false
}

// fold returns the encoding of the document base and tail rebuild: the
// base and each batch verified and applied as replay applies them, on a
// scratch state, and the result encoded.
func fold(name string, base []byte, tail [][]byte) ([]byte, error) {
	st := &State{Docs: make(map[string]*core.Document), docs: make(map[string]*docJournal)}
	for i, data := range append([][]byte{base}, tail...) {
		op := byte(recEditDoc)
		if i == 0 {
			op = recPutDoc
		}
		m, err := st.verify(op, [][]byte{[]byte(name), data}, true, nil, 0)
		if err == nil {
			err = st.apply(m)
		}
		if err != nil {
			return nil, err
		}
	}
	return codec.EncodeBinary(st.Docs[name])
}

// blockFromParts builds a block from replayed parts under its recorded
// content address id, with a size-byte payload it does not hold yet: the
// caller sets it, or the checker assembles it. It does not hash: the
// caller checks id on an addrChecker.
func (st *State) blockFromParts(id, name, mediumText, descText []byte, size int) (*media.Block, error) {
	medium, err := core.ParseMedium(string(mediumText))
	if err != nil {
		return nil, err
	}
	desc, err := st.parseDesc(descText)
	if err != nil {
		return nil, fmt.Errorf("descriptor: %w", err)
	}
	if n, ok := desc.GetInt(media.DescBytes); ok && n != int64(size) {
		return nil, fmt.Errorf("descriptor bytes attribute %d disagrees with %d-byte payload",
			n, size)
	}
	// Built by hand, not through NewBlock: the journaled descriptor
	// already carries the attributes NewBlock would derive, and the
	// memoized one is shared, immutably, by every repeat of its text.
	return &media.Block{
		ID:         string(id),
		Name:       string(name),
		Medium:     medium,
		Descriptor: desc,
	}, nil
}

// stagedChunks resolves a recPutBlkC manifest — chunk hashes, each
// staged by an earlier recChunk in the same snapshot — to the staged
// chunks and the payload length they make. No chunk is hashed: the
// checker joins them, and the payload's address covers every byte.
func (st *State) stagedChunks(manifest []byte) (chunks [][]byte, total int, err error) {
	if len(manifest) == 0 || len(manifest)%chunker.HashSize != 0 {
		return nil, 0, fmt.Errorf("manifest length %d not a multiple of hash size", len(manifest))
	}
	chunks = make([][]byte, 0, len(manifest)/chunker.HashSize)
	for off := 0; off < len(manifest); off += chunker.HashSize {
		var h ChunkHash
		copy(h[:], manifest[off:])
		data, ok := st.replayChunks[h]
		if !ok {
			return nil, 0, fmt.Errorf("manifest references unstaged chunk %.12x", h[:])
		}
		total += len(data)
		if total > maxRecordBytes {
			return nil, 0, fmt.Errorf("assembled payload exceeds %d bytes", maxRecordBytes)
		}
		chunks = append(chunks, data)
	}
	return chunks, total, nil
}

// releaseReplay drops the replay-only tables once replay is done: the
// assembled payloads own their bytes and the blocks their descriptors,
// and the staging copies and memo entries would otherwise linger for
// the process lifetime.
func (st *State) releaseReplay() {
	st.replayChunks = nil
	st.descMemo = nil
}

// addrChecker compares block payloads with the content addresses their
// records carry on GOMAXPROCS workers fed by a queue, so the hashing
// overlaps the loop's decoding and applying. Each replayed stream and
// each replicated batch has its own. wait reports the failure at the
// lowest position, whatever order checks finish in.
type addrChecker struct {
	jobs chan func() // nil until the first check starts the workers
	wg   sync.WaitGroup

	mu  sync.Mutex
	pos int64          // position of the earliest failure so far
	err error          // its reason; nil while every check passed
	bad []*media.Block // every block that failed
}

// checkQueue is the job queue's depth: the loop blocks only once it is
// full (any depth from 16 to 256 measured the same).
const checkQueue = 64

func newAddrChecker() *addrChecker { return &addrChecker{} }

// check queues the comparison of b's payload with b.ID, the address the
// record at pos carries. Given chunks, the worker first joins them into
// b.Payload, which nothing may read before wait returns.
func (c *addrChecker) check(pos int64, op byte, b *media.Block, chunks [][]byte) {
	if c.jobs == nil {
		c.jobs = make(chan func(), checkQueue)
		n := runtime.GOMAXPROCS(0)
		c.wg.Add(n)
		for range n {
			go func() {
				defer c.wg.Done()
				for job := range c.jobs {
					job()
				}
			}()
		}
	}
	c.jobs <- func() {
		if chunks != nil {
			b.Payload = bytes.Join(chunks, nil)
		}
		got := media.ContentAddress(b.Medium, b.Payload)
		if got == b.ID {
			return
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.err == nil || pos < c.pos {
			c.pos = pos
			c.err = fmt.Errorf("op %d %q: recorded content address %.12s does not match payload (%.12s)",
				op, b.Name, b.ID, got)
		}
		c.bad = append(c.bad, b)
	}
}

// wait blocks until every queued check is done, stops the workers, and
// returns the earliest failure, or a nil error. Call it once.
func (c *addrChecker) wait() (pos int64, err error) {
	if c.jobs != nil {
		close(c.jobs)
		c.wg.Wait()
	}
	return c.pos, c.err
}

// purge drops every block that failed its check from st's store, so the
// state a failed replay leaves behind holds no block under a wrong
// address. Call it after wait.
func (c *addrChecker) purge(st *State) {
	for _, b := range c.bad {
		if cur, ok := st.Store.Get(b.ID); ok && cur == b {
			st.Store.Delete(b.ID)
		}
	}
}
